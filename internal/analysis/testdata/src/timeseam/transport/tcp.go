// tcp.go: the socket backend is exempt from determinism's replay checks, but
// not from the clock seam: its dial/backoff waits go through vclock.Clock too.
package transport

import "time"

func backoff(d time.Duration, stop chan struct{}) bool {
	timer := time.NewTimer(d) // want `call to time.NewTimer`
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-stop:
		return false
	}
}
