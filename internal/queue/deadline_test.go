package queue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ispn/internal/packet"
)

func TestDeadlineOrdering(t *testing.T) {
	q := NewDeadlineQueue()
	keys := []float64{5, 1, 3, 2, 4}
	for i, k := range keys {
		q.Push(mkPkt(uint64(i)), k)
	}
	want := []float64{1, 2, 3, 4, 5}
	for _, w := range want {
		if got := q.PeekKey(); got != w {
			t.Fatalf("PeekKey = %v, want %v", got, w)
		}
		q.Pop()
	}
	if q.Pop() != nil {
		t.Fatal("Pop of empty queue should be nil")
	}
}

func TestDeadlineEqualKeysAreFIFO(t *testing.T) {
	// The paper's observation: when deadlines are a constant offset of
	// arrival, deadline scheduling degenerates to FIFO. Equal keys must
	// preserve insertion order.
	q := NewDeadlineQueue()
	for i := uint64(0); i < 20; i++ {
		q.Push(mkPkt(i), 7.0)
	}
	for i := uint64(0); i < 20; i++ {
		if p := q.Pop(); p.Seq != i {
			t.Fatalf("Pop seq = %d, want %d (equal-deadline ties must be FIFO)", p.Seq, i)
		}
	}
}

func TestDeadlinePeekKeyEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PeekKey of empty queue did not panic")
		}
	}()
	NewDeadlineQueue().PeekKey()
}

// Property: popping all packets yields keys in nondecreasing order, for any
// input key sequence.
func TestDeadlineSortedProperty(t *testing.T) {
	f := func(keys []float64) bool {
		q := NewDeadlineQueue()
		for i, k := range keys {
			q.Push(mkPkt(uint64(i)), k)
		}
		var got []float64
		for q.Len() > 0 {
			got = append(got, q.PeekKey())
			q.Pop()
		}
		return sort.Float64sAreSorted(got) && len(got) == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: with random interleaving of pushes and pops, the queue always
// pops the minimum of the currently queued keys.
func TestDeadlineMinProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := NewDeadlineQueue()
	byPkt := map[*packet.Packet]float64{}
	for step := 0; step < 5000; step++ {
		if q.Len() == 0 || rng.Intn(3) > 0 {
			p := mkPkt(uint64(step))
			k := rng.Float64()
			byPkt[p] = k
			q.Push(p, k)
		} else {
			p := q.Pop()
			k := byPkt[p]
			delete(byPkt, p)
			for _, other := range byPkt {
				if other < k {
					t.Fatalf("popped key %v but %v was queued", k, other)
				}
			}
		}
	}
}

func BenchmarkDeadlinePushPop(b *testing.B) {
	q := NewDeadlineQueue()
	p := mkPkt(0)
	rng := rand.New(rand.NewSource(1))
	keys := make([]float64, 1024)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(p, keys[i%1024])
		if q.Len() > 64 {
			q.Pop()
		}
	}
}
