package packet

import (
	"strings"
	"testing"
	"unsafe"
)

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		Guaranteed: "guaranteed",
		Predicted:  "predicted",
		Datagram:   "datagram",
		Class(9):   "class(9)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
}

func TestExpectedArrival(t *testing.T) {
	p := &Packet{ArrivedAt: 10.0, JitterOffset: 0.25}
	if got := p.ExpectedArrival(); got != 9.75 {
		t.Fatalf("ExpectedArrival = %v, want 9.75", got)
	}
	// A packet that has been luckier than average (negative offset) is
	// expected later than it actually arrived.
	p.JitterOffset = -0.5
	if got := p.ExpectedArrival(); got != 10.5 {
		t.Fatalf("ExpectedArrival = %v, want 10.5", got)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{FlowID: 3, Seq: 17, Class: Predicted, Priority: 1, Size: 1000}
	s := p.String()
	for _, frag := range []string{"flow=3", "seq=17", "predicted", "prio=1", "1000b"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

// A packet is the one struct every hop touches; its size is a counter
// (scripts/counters.sh reads the logged figure).
func TestPacketSize(t *testing.T) {
	got := unsafe.Sizeof(Packet{})
	t.Logf("Packet is %d bytes", got)
	if got > 72 {
		t.Fatalf("Packet is %d bytes, want <= 72", got)
	}
}
