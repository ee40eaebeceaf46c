package rss

import (
	"bytes"
	"math/rand"
	"testing"

	"ehdl/internal/pktgen"
)

// FuzzRSSDispatch feeds arbitrary and malformed frames through the
// Toeplitz hasher and the dispatcher and checks the safety contract:
// no panic on any input, a stable hash for identical bytes that agrees
// with the bit-serial oracle, the
// malformed fallback always landing on queue 0, and — the invariant
// conformance rests on — a frame classifying to the same queue every
// time it is seen.
func FuzzRSSDispatch(f *testing.F) {
	// Seed with well-formed generator traffic plus every malformation
	// class applied to it, the corpus the chaos campaign uses.
	gen := pktgen.NewGenerator(pktgen.GeneratorConfig{Flows: 16, PacketLen: 64, Seed: 9})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		pkt := gen.Next()
		f.Add(pkt)
		for _, kind := range pktgen.MalformKinds() {
			f.Add(pktgen.Malform(pkt, kind, rng))
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 2*len(DefaultKey)))

	h, err := NewHasher(nil)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, pkt []byte) {
		d, err := NewDispatcher(DispatcherConfig{Queues: 4, Batch: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		go func() {
			// Drain the sinks so batched offers never block the fuzzer.
			for q := 0; q < d.Queues(); q++ {
				go func(c <-chan []Item) {
					for range c {
					}
				}(d.Sink(q))
			}
		}()

		h1, ok1 := h.HashPacket(pkt)
		h2, ok2 := h.HashPacket(pkt)
		if h1 != h2 || ok1 != ok2 {
			t.Fatalf("hash unstable: (%#x,%v) then (%#x,%v)", h1, ok1, h2, ok2)
		}

		q1, ch := d.Classify(pkt)
		q2, _ := d.Classify(pkt)
		if q1 != q2 {
			t.Fatalf("classification unstable: queue %d then %d", q1, q2)
		}
		if !ok1 && q1 != 0 {
			t.Fatalf("malformed frame steered to queue %d, want the queue-0 fallback", q1)
		}
		if ok1 && ch != h1 {
			t.Fatalf("Classify hash %#x != HashPacket %#x", ch, h1)
		}

		// Offer twice: both must steer to the classified queue and the
		// per-frame state must stay consistent (same flow never crosses
		// queues mid-run).
		if got := d.Offer(pkt); got != q1 {
			t.Fatalf("Offer steered to %d, Classify said %d", got, q1)
		}
		if got := d.Offer(append([]byte(nil), pkt...)); got != q1 {
			t.Fatalf("identical frame crossed queues: %d then %d", d.Offer(pkt), q1)
		}

		// Raw bytes as a tuple: the table hash must agree with the
		// bit-serial definition, truncation included.
		if got, want := h.Sum(pkt), serialSum(DefaultKey, pkt); got != want {
			t.Fatalf("Sum %#08x, serial oracle %#08x", got, want)
		}
	})
}
