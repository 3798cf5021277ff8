package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// layers are the packages under internal/ whose share of the run the traced
// run reports, plus "runtime" for the Go collector and allocator. Every CPU
// sample lands in exactly one of them or in "other".
var layers = []string{
	"scenario", "sim", "sched", "topology", "packet", "queue", "source", "tcp",
	"stats", "tokenbucket", "admission", "core", "routing", "serve", "runtime",
}

const layerPrefix = "ispn/internal/"

// layerOfFunc names the layer a function belongs to, or "".
func layerOfFunc(fn string) string {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range layers {
		if l == pkg && l != "runtime" {
			return l
		}
	}
	return ""
}

// runtimeWork marks stacks that are the collector or the allocator; with no
// repo frame beneath them they are charged to "runtime", anything else
// without a repo frame (the scheduler, the benchmark's own code, net/http
// in the client) to "other".
var runtimeWork = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.gcDrain",
}

// attribute charges one stack (function names, innermost first) to a layer:
// the innermost frame that lies in a layer's package wins.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		for _, rt := range runtimeWork {
			if fn == rt {
				return "runtime"
			}
		}
	}
	return "other"
}

// cpuShares reads a gzipped pprof CPU profile and returns each layer's share
// of the sampled CPU time (keys: the layer names and "other"; they sum to 1).
// A profile with no samples gives all zeros.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(layers)+1)
	for _, l := range layers {
		shares[l] = 0
	}
	shares["other"] = 0
	var total float64
	for _, s := range prof.samples {
		shares[attribute(prof.stack(s))] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// --- the slice of the pprof protobuf schema attribution needs -------------

type profSample struct {
	locs  []uint64
	value int64 // last value of the sample: CPU nanoseconds
}

type profile struct {
	samples []profSample
	locFns  map[uint64][]uint64 // location id -> function ids, innermost (inlined) first
	fnName  map[uint64]int64    // function id -> string-table index
	strs    []string
}

func (p *profile) stack(s profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locFns[loc] {
			if i := p.fnName[fn]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

// pbuf walks protobuf wire format.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = fmt.Errorf("cpu profile: varint overflow")
	return 0
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if p.err != nil || n > uint64(len(p.b)) {
		if p.err == nil {
			p.err = io.ErrUnexpectedEOF
		}
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// fields calls fn for every field of the message; fn receives the field
// number, the varint value (wire type 0) or the payload (wire type 2).
func (p *pbuf) fields(fn func(num int, v uint64, payload []byte)) {
	for len(p.b) > 0 && p.err == nil {
		key := p.varint()
		switch key & 7 {
		case 0:
			fn(int(key>>3), p.varint(), nil)
		case 1:
			if len(p.b) < 8 {
				p.err = io.ErrUnexpectedEOF
				return
			}
			p.b = p.b[8:]
		case 2:
			fn(int(key>>3), 0, p.bytes())
		case 5:
			if len(p.b) < 4 {
				p.err = io.ErrUnexpectedEOF
				return
			}
			p.b = p.b[4:]
		default:
			p.err = fmt.Errorf("cpu profile: wire type %d", key&7)
		}
	}
}

// repeatedVarints appends a repeated integer field that may arrive packed
// (payload) or one value at a time (v).
func repeatedVarints(dst []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(dst, v)
	}
	q := pbuf{b: payload}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst
}

func decodeProfile(raw []byte) (*profile, error) {
	prof := &profile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	top := pbuf{b: raw}
	top.fields(func(num int, _ uint64, payload []byte) {
		m := pbuf{b: payload}
		switch num {
		case 2: // Sample
			var s profSample
			var values []uint64
			m.fields(func(num int, v uint64, payload []byte) {
				switch num {
				case 1:
					s.locs = repeatedVarints(s.locs, v, payload)
				case 2:
					values = repeatedVarints(values, v, payload)
				}
			})
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			prof.samples = append(prof.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m.fields(func(num int, v uint64, payload []byte) {
				switch num {
				case 1:
					id = v
				case 4: // Line
					ln := pbuf{b: payload}
					ln.fields(func(num int, v uint64, _ []byte) {
						if num == 1 {
							fns = append(fns, v)
						}
					})
				}
			})
			prof.locFns[id] = fns
		case 5: // Function
			var id uint64
			name := int64(-1)
			m.fields(func(num int, v uint64, _ []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			})
			prof.fnName[id] = name
		case 6: // string_table
			prof.strs = append(prof.strs, string(payload))
		}
		if m.err != nil && top.err == nil {
			top.err = m.err
		}
	})
	if top.err != nil {
		return nil, top.err
	}
	return prof, nil
}
