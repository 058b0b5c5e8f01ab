// Serialization of Analysis results.
//
// Only the derived tables are stored: per-word reachability, leaders and
// block membership, the recovered block graph, dominators and the
// verifier diagnostics. The per-region instruction arrays (ins/ok/pre)
// are cheap pure functions of the image bytes, so Decode rebuilds them
// with buildRegions and validates the stored tables against the
// resulting shape — a payload that disagrees structurally with the
// image it claims to describe is rejected, and the caller falls back to
// a fresh Analyze. Every accepted payload re-encodes byte for byte.
package sa

import (
	"encoding/binary"
	"fmt"

	"superpin/internal/asm"
)

// serEnc is a minimal little-endian byte writer.
type serEnc struct{ b []byte }

func (e *serEnc) u8(v uint8) { e.b = append(e.b, v) }
func (e *serEnc) u32(v uint32) {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	e.b = append(e.b, w[:]...)
}
func (e *serEnc) i32(v int32) { e.u32(uint32(v)) }
func (e *serEnc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// serDec is the matching reader; the first failure sticks.
type serDec struct {
	b   []byte
	err error
}

func (d *serDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("sa: decode: "+format, args...)
	}
}

func (d *serDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.fail("truncated payload")
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *serDec) u8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *serDec) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *serDec) i32() int32 { return int32(d.u32()) }

// bool reads a byte that must be 0 or 1, so an accepted payload
// re-encodes unchanged.
func (d *serDec) bool() bool {
	v := d.u8()
	if v > 1 {
		d.fail("bad bool byte %d", v)
	}
	return v == 1
}

func (d *serDec) str() string {
	n := d.u32()
	if d.err == nil && uint64(n) > uint64(len(d.b)) {
		d.fail("truncated string")
		return ""
	}
	return string(d.take(int(n)))
}

// Serialization format versioning. Version 1 payloads had no header at
// all; the magic makes them fail decoding deterministically. A payload
// of any other version fails too, so a stored blob goes cold on a
// version bump and never loads wrong.
const (
	serMagic   = uint32(0x53415053) // "SPAS"
	serVersion = uint32(3)          // v3: no liveness masks, no value states
)

// Encode serializes the analysis's derived tables. The result is only
// meaningful together with the exact program image the analysis was
// built from; whoever stores it must key it by the image.
func (a *Analysis) Encode() []byte {
	e := &serEnc{}
	e.u32(serMagic)
	e.u32(serVersion)
	e.u32(uint32(len(a.regions)))
	for _, r := range a.regions {
		e.u32(r.addr)
		e.u32(uint32(r.words()))
		for _, v := range r.reach {
			e.u8(v)
		}
		for _, v := range r.leader {
			e.u8(boolByte(v))
		}
		for _, v := range r.blockOf {
			e.i32(v)
		}
	}
	e.u32(uint32(len(a.blocks)))
	for _, b := range a.blocks {
		e.u32(uint32(b.ri))
		e.u32(uint32(b.start))
		e.u32(uint32(b.end))
		e.u8(boolByte(b.entryReach))
		e.u8(boolByte(b.conservative))
		e.u32(uint32(len(b.succs)))
		for i, s := range b.succs {
			e.u32(uint32(s))
			e.u8(uint8(b.kinds[i]))
		}
	}
	e.i32(int32(a.entryBlock))
	for _, v := range a.idom {
		e.i32(int32(v))
	}
	e.u32(uint32(len(a.rpo)))
	for _, v := range a.rpo {
		e.u32(uint32(v))
	}
	e.u32(uint32(len(a.diags)))
	for _, dg := range a.diags {
		e.u8(uint8(dg.Sev))
		e.u8(uint8(dg.Code))
		e.u32(dg.Addr)
		e.str(dg.Msg)
	}
	return e.b
}

func boolByte(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

// Decode rebuilds an Analysis for p from Encode output. The region
// structure is recomputed from the image (so instruction arrays can
// never disagree with the bytes) and every stored index is bounds
// checked; any structural mismatch returns an error and the caller
// should fall back to Analyze.
func Decode(data []byte, p *asm.Program) (*Analysis, error) {
	if p == nil {
		return nil, fmt.Errorf("sa: decode: nil program")
	}
	a := &Analysis{prog: p, entryBlock: -1}
	a.buildRegions()
	d := &serDec{b: data}

	if m := d.u32(); d.err == nil && m != serMagic {
		d.fail("bad magic %#x (headerless v1 payload?)", m)
	}
	if v := d.u32(); d.err == nil && v != serVersion {
		d.fail("format version %d, want %d", v, serVersion)
	}
	if n := d.u32(); d.err == nil && int(n) != len(a.regions) {
		d.fail("region count %d does not match image (%d)", n, len(a.regions))
	}
	for _, r := range a.regions {
		if d.err != nil {
			break
		}
		if addr := d.u32(); d.err == nil && addr != r.addr {
			d.fail("region addr %#x does not match image (%#x)", addr, r.addr)
		}
		if w := d.u32(); d.err == nil && int(w) != r.words() {
			d.fail("region word count %d does not match image (%d)", w, r.words())
		}
		for i := range r.reach {
			if v := d.u8(); v <= reachEntry {
				r.reach[i] = v
			} else {
				d.fail("bad reach level %d", v)
			}
		}
		for i := range r.leader {
			r.leader[i] = d.bool()
		}
		for i := range r.blockOf {
			if v := d.i32(); v >= -1 {
				r.blockOf[i] = v
			} else {
				d.fail("bad word block id %d", v)
			}
		}
	}

	nblocks := int(d.u32())
	if d.err == nil && uint64(nblocks)*11 > uint64(len(d.b)) {
		d.fail("block count %d exceeds payload", nblocks)
	}
	if d.err == nil {
		a.blocks = make([]*block, 0, nblocks)
		for i := 0; i < nblocks && d.err == nil; i++ {
			b := &block{
				ri:    int(d.u32()),
				start: int(d.u32()),
				end:   int(d.u32()),
			}
			b.entryReach = d.bool()
			b.conservative = d.bool()
			if d.err != nil {
				break
			}
			if b.ri >= len(a.regions) || b.start < 0 || b.end < b.start ||
				b.end > a.regions[b.ri].words() {
				d.fail("block %d out of image bounds", i)
				break
			}
			nsucc := int(d.u32())
			if d.err == nil && uint64(nsucc)*5 > uint64(len(d.b)) {
				d.fail("successor count %d exceeds payload", nsucc)
			}
			for j := 0; j < nsucc && d.err == nil; j++ {
				s := int(d.u32())
				k := d.u8()
				if s >= nblocks || edgeKind(k) > edgeRet {
					d.fail("block %d has bad successor %d/kind %d", i, s, k)
					break
				}
				b.succs = append(b.succs, s)
				b.kinds = append(b.kinds, edgeKind(k))
			}
			a.blocks = append(a.blocks, b)
		}
	}
	// blockOf values index a.blocks; validate now that the count is known.
	for _, r := range a.regions {
		if d.err != nil {
			break
		}
		for _, id := range r.blockOf {
			if int(id) >= nblocks {
				d.fail("word block id %d out of range", id)
				break
			}
		}
	}
	if d.err != nil {
		// nblocks sizes the tables below; after a failure it is
		// unchecked and may be huge.
		return nil, d.err
	}

	a.entryBlock = int(d.i32())
	if d.err == nil && (a.entryBlock < -1 || a.entryBlock >= nblocks) {
		d.fail("entry block %d out of range", a.entryBlock)
	}
	a.idom = make([]int, nblocks)
	for i := range a.idom {
		v := int(d.i32())
		if d.err == nil && (v < -1 || v >= nblocks) {
			d.fail("idom %d out of range", v)
		}
		a.idom[i] = v
	}
	if nrpo := int(d.u32()); d.err == nil {
		if nrpo > nblocks {
			d.fail("rpo count %d exceeds blocks", nrpo)
		}
		for i := 0; i < nrpo && d.err == nil; i++ {
			v := int(d.u32())
			if v >= nblocks {
				d.fail("rpo block %d out of range", v)
				break
			}
			a.rpo = append(a.rpo, v)
		}
	}
	if ndiags := int(d.u32()); d.err == nil {
		if uint64(ndiags)*10 > uint64(len(d.b)) {
			d.fail("diag count %d exceeds payload", ndiags)
		}
		for i := 0; i < ndiags && d.err == nil; i++ {
			dg := Diag{
				Sev:  Severity(d.u8()),
				Code: Code(d.u8()),
				Addr: d.u32(),
				Msg:  d.str(),
			}
			if d.err == nil && (dg.Sev > SevError || int(dg.Code) >= len(codeNames)) {
				d.fail("bad diag sev/code %d/%d", dg.Sev, dg.Code)
				break
			}
			a.diags = append(a.diags, dg)
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return a, nil
}
