package group

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

func BenchmarkRawTransportRoundTrip(b *testing.B) {
	net := netsim.New(netsim.Config{})
	dir := NewDirectory(net)
	a, err := NewRawTransport(dir, 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewRawTransport(dir, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		a.Close()
		c.Close()
		net.Close()
	}()
	// Echo server.
	go func() {
		for d := range c.Recv() {
			_ = c.Send(d.From, "pong", d.Payload)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(2, "ping", i); err != nil {
			b.Fatal(err)
		}
		<-a.Recv()
	}
}

func BenchmarkR3TransportReliableDelivery(b *testing.B) {
	for _, drop := range []float64{0, 0.1} {
		name := "lossless"
		if drop > 0 {
			name = "10pct-drop"
		}
		b.Run(name, func(b *testing.B) {
			net := netsim.New(netsim.Config{DropRate: drop, Seed: 3})
			dir := NewDirectory(net)
			src, err := NewR3Transport(dir, 1, 200*time.Microsecond)
			if err != nil {
				b.Fatal(err)
			}
			dst, err := NewR3Transport(dir, 2, 200*time.Microsecond)
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				src.Close()
				dst.Close()
				net.Close()
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := src.Send(2, "m", i); err != nil {
					b.Fatal(err)
				}
				d := <-dst.Recv()
				if d.Payload.(int) != i {
					b.Fatalf("out of order at %d", i)
				}
			}
		})
	}
}
