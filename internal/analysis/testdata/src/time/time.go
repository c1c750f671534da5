// Package time is a minimal stand-in for the standard library's time package:
// just enough surface for the determinism and timeseam fixtures to typecheck.
// The analyzers match it by import path, exactly as they match the real one.
package time

type Time struct{}

type Duration int64

func Now() Time             { return Time{} }
func Since(t Time) Duration { return 0 }
func Sleep(d Duration)      {}

func After(d Duration) <-chan Time { return nil }

type Timer struct{ C chan Time }

func NewTimer(d Duration) *Timer            { return &Timer{} }
func AfterFunc(d Duration, f func()) *Timer { return &Timer{} }
func (t *Timer) Stop() bool                 { return true }
func (t *Timer) Reset(d Duration) bool      { return true }

func (t Time) Add(d Duration) Time { return t }

type Ticker struct{ C chan Time }

func NewTicker(d Duration) *Ticker { return &Ticker{} }
func (t *Ticker) Stop()            {}
