// Package hot exercises the noalloc analyzer: every allocating construct in
// an annotated function is flagged, the sanctioned hot-path idioms stay
// clean, and unannotated functions may allocate freely.
package hot

import "fmt"

type item struct {
	n    int
	next *item
}

type ring struct {
	buf []int
}

func log(v any) {}

//caa:noalloc
func (r *ring) push(v int) {
	r.buf = append(r.buf, v) // sanctioned reassignment form
}

//caa:noalloc
func (r *ring) compact(i int) {
	r.buf = append(r.buf[:i], r.buf[i+1:]...) // sanctioned: same base reassigned
}

//caa:noalloc
func badAppend(r *ring, v int) []int {
	out := append(r.buf, v) // want `append outside`
	return out
}

//caa:noalloc
func literals(v int) *item {
	xs := []int{v}              // want `slice literal`
	m := map[string]int{"v": v} // want `map literal`
	_ = xs
	_ = m
	return &item{n: v} // want `&composite literal escapes`
}

//caa:noalloc
func makes() {
	s := make([]int, 0, 8)    // want `allocates its backing array`
	c := make(chan int)       // want `make\(chan\) allocates`
	m := make(map[string]int) // want `make\(map\) allocates`
	p := new(item)            // want `new allocates`
	_, _, _, _ = s, c, m, p
}

//caa:noalloc
func closures(n int) func() int {
	f := func() int { return 42 } // non-capturing: static, clean
	_ = f
	g := func() int { return n } // want `closure captures n`
	return g
}

//caa:noalloc
func format(n int) string {
	return fmt.Sprintf("n=%d", n) // want `fmt.Sprintf allocates`
}

//caa:noalloc
func conv(s string, b []byte) (string, []byte) {
	x := string(b) // want `conversion copies`
	y := []byte(s) // want `conversion copies`
	return x, y
}

//caa:noalloc
func concat(a, b string) string {
	return a + b + "!" // want `string concatenation`
}

//caa:noalloc
func boxing(n int, it *item) {
	log(n)        // want `boxes it on the heap`
	log(it)       // pointer-shaped: stored directly, clean
	log(3)        // constant: clean
	var v any = n // want `boxes it on the heap`
	v = nil       // clean
	_ = v
}

//caa:noalloc
func guard(kind string) {
	if kind == "" {
		panic("bad kind: " + kind) // failure path: exempt
	}
}

//caa:noalloc
func allowed(n int) *item {
	return &item{n: n} //protolint:allow noalloc init-time only, never on the steady-state path
}

//caa:noalloc
func staleAllow(it *item, n int) *item {
	it.n = n //protolint:allow noalloc init-time only, never on the steady-state path // want `allow noalloc suppresses nothing`
	return it
}

func work(n int) {}

func idle() {}

func (r *ring) drain() {}

//caa:noalloc
func spawns(r *ring, n int, f func()) {
	go idle()               // package-level function, no arguments: clean
	go f()                  // func value handed over as it is: clean
	go func() {}()          // non-capturing literal: clean
	go work(n)              // want `go statement with arguments`
	go r.drain()            // want `go on a method value`
	go func() { work(n) }() // want `closure captures n`
	go work(len([]int{n}))  // want `go statement with arguments` `slice literal`
	go work(n)              //protolint:allow noalloc cold path: the pool starts a worker only when none is idle
}

// cold is not annotated: it may allocate freely.
func cold(n int) *item {
	xs := []int{n}
	return &item{n: xs[0], next: &item{}}
}
