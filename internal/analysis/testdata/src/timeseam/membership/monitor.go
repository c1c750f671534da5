// Package membership is a clock-seam fixture: every banned time call must be
// flagged, while Duration arithmetic and an injected clock stay legal.
package membership

import "time"

// Clock models the vclock.Clock seam the real package threads through.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	AfterFunc(d time.Duration, f func()) *time.Timer
}

type Monitor struct {
	clk       Clock
	heartbeat time.Duration
}

func (m *Monitor) pollDirect() {
	start := time.Now() // want `call to time.Now in clock-seam package membership`
	_ = start
	time.Sleep(m.heartbeat) // want `call to time.Sleep in clock-seam package membership`
	<-time.After(m.heartbeat) // want `call to time.After in clock-seam package membership`
	t := time.NewTimer(m.heartbeat) // want `call to time.NewTimer in clock-seam package membership`
	t.Stop()
	tk := time.NewTicker(m.heartbeat) // want `call to time.NewTicker in clock-seam package membership`
	tk.Stop()
	time.AfterFunc(m.heartbeat, m.pollSeamed) // want `call to time.AfterFunc in clock-seam package membership.*use its Now/AfterFunc/Sleep`
}

// pollSeamed is the compliant shape: the injected clock arms every timer, and
// pure Duration arithmetic never waits, so neither line is a finding.
func (m *Monitor) pollSeamed() {
	_ = m.clk.Now()
	m.clk.Sleep(m.heartbeat)
	tk := m.clk.AfterFunc(2*m.heartbeat, m.pollSeamed)
	tk.Stop()
}
