// fabric.go: the in-process fabrics stay off the wall clock.
package transport

import "time"

func deliverAt() time.Time {
	return time.Now() // want `call to time.Now`
}
