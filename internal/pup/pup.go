// Package pup implements a Pack-UnPack (PUP) serialization framework in the
// style of Charm++'s PUP module. A single Pup method on an object describes
// its state once; the same description is used to size, pack, and unpack the
// object. This is the mechanism that makes chares migratable: migration,
// checkpointing, and restore all reduce to a Pup traversal.
//
// The wire format is little-endian fixed-width encodings with length-prefixed
// byte strings. It is intentionally simple and self-contained so checkpoints
// written by one runtime incarnation can be restored by another.
package pup

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Mode selects what a PUP traversal does.
type Mode int

const (
	// Sizing computes the number of bytes the object would occupy.
	Sizing Mode = iota
	// Packing writes the object's state into the buffer.
	Packing
	// Unpacking reads the object's state back out of the buffer.
	Unpacking
)

// String returns the PUP mode's display name.
func (m Mode) String() string {
	switch m {
	case Sizing:
		return "sizing"
	case Packing:
		return "packing"
	case Unpacking:
		return "unpacking"
	}
	return fmt.Sprintf("pup.Mode(%d)", int(m))
}

// Pupable is implemented by any object that can be serialized with a PUP
// traversal. Implementations must call the same sequence of PUP methods in
// every mode.
type Pupable interface {
	Pup(p *PUP)
}

// PUP carries the state of one serialization traversal.
type PUP struct {
	mode Mode
	buf  []byte
	off  int
	size int
	err  error
}

// NewSizer returns a PUP that computes the packed size of an object.
func NewSizer() *PUP { return &PUP{mode: Sizing} }

// NewPacker returns a PUP that packs into a buffer of exactly size bytes.
func NewPacker(size int) *PUP { return &PUP{mode: Packing, buf: make([]byte, size)} }

// NewUnpacker returns a PUP that unpacks from buf.
func NewUnpacker(buf []byte) *PUP { return &PUP{mode: Unpacking, buf: buf} }

// IsUnpacking reports whether the traversal is reading state back.
func (p *PUP) IsUnpacking() bool { return p.mode == Unpacking }

// Size reports the number of bytes consumed so far (Sizing mode) or the
// buffer position (Packing/Unpacking).
func (p *PUP) Size() int {
	if p.mode == Sizing {
		return p.size
	}
	return p.off
}

// Bytes returns the packed buffer. Only meaningful after a Packing traversal.
func (p *PUP) Bytes() []byte { return p.buf }

// Err returns the first error encountered during the traversal, if any.
func (p *PUP) Err() error { return p.err }

func (p *PUP) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("pup: "+format, args...)
	}
}

func (p *PUP) reserve(n int) []byte {
	switch p.mode {
	case Sizing:
		p.size += n
		return nil
	case Packing:
		if p.off+n > len(p.buf) {
			p.fail("pack overflow: need %d bytes at offset %d, have %d", n, p.off, len(p.buf))
			return nil
		}
	case Unpacking:
		if p.off+n > len(p.buf) {
			p.fail("unpack underflow: need %d bytes at offset %d, have %d", n, p.off, len(p.buf))
			return nil
		}
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b
}

// Uint64 serializes a uint64 in place.
func (p *PUP) Uint64(v *uint64) {
	b := p.reserve(8)
	if b == nil {
		return
	}
	switch p.mode {
	case Packing:
		binary.LittleEndian.PutUint64(b, *v)
	case Unpacking:
		*v = binary.LittleEndian.Uint64(b)
	}
}

// Int64 serializes an int64 in place.
func (p *PUP) Int64(v *int64) {
	u := uint64(*v)
	p.Uint64(&u)
	if p.mode == Unpacking {
		*v = int64(u)
	}
}

// Int serializes an int as a 64-bit value.
func (p *PUP) Int(v *int) {
	i := int64(*v)
	p.Int64(&i)
	if p.mode == Unpacking {
		*v = int(i)
	}
}

// Float64 serializes a float64 in place.
func (p *PUP) Float64(v *float64) {
	u := math.Float64bits(*v)
	p.Uint64(&u)
	if p.mode == Unpacking {
		*v = math.Float64frombits(u)
	}
}

// String serializes a string with a length prefix.
func (p *PUP) String(v *string) {
	n := len(*v)
	p.Int(&n)
	if p.err != nil {
		return
	}
	if p.mode == Unpacking {
		if n < 0 || n > len(p.buf)-p.off {
			p.fail("string length %d out of range", n)
			return
		}
		b := p.reserve(n)
		if b == nil {
			return
		}
		*v = string(b)
		return
	}
	b := p.reserve(n)
	if p.mode == Packing && b != nil {
		copy(b, *v)
	}
}

// Bytes serializes a byte slice with a length prefix. On unpack the slice is
// (re)allocated.
func (p *PUP) Bytes_(v *[]byte) {
	n := len(*v)
	p.Int(&n)
	if p.err != nil {
		return
	}
	if p.mode == Unpacking {
		if n < 0 || n > len(p.buf)-p.off {
			p.fail("bytes length %d out of range", n)
			return
		}
		b := p.reserve(n)
		if b == nil {
			return
		}
		*v = append([]byte(nil), b...)
		return
	}
	b := p.reserve(n)
	if p.mode == Packing && b != nil {
		copy(b, *v)
	}
}

// Float64s serializes a []float64 with a length prefix. On unpack the slice
// is (re)allocated. This is the workhorse for grid and particle data, so the
// pack/unpack loops avoid per-element function calls.
func (p *PUP) Float64s(v *[]float64) {
	n := len(*v)
	p.Int(&n)
	if p.err != nil {
		return
	}
	if p.mode == Unpacking {
		if n < 0 || n > (len(p.buf)-p.off)/8 {
			p.fail("float64 slice length %d out of range", n)
			return
		}
		*v = make([]float64, n)
	}
	b := p.reserve(n * 8)
	switch p.mode {
	case Packing:
		if b == nil {
			return
		}
		for i, f := range *v {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(f))
		}
	case Unpacking:
		if b == nil {
			return
		}
		for i := range *v {
			(*v)[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
	}
}

// Ints serializes an []int with a length prefix.
func (p *PUP) Ints(v *[]int) {
	n := len(*v)
	p.Int(&n)
	if p.err != nil {
		return
	}
	if p.mode == Unpacking {
		if n < 0 || n > (len(p.buf)-p.off)/8 {
			p.fail("int slice length %d out of range", n)
			return
		}
		*v = make([]int, n)
	}
	b := p.reserve(n * 8)
	switch p.mode {
	case Packing:
		if b == nil {
			return
		}
		for i, x := range *v {
			binary.LittleEndian.PutUint64(b[i*8:], uint64(x))
		}
	case Unpacking:
		if b == nil {
			return
		}
		for i := range *v {
			(*v)[i] = int(binary.LittleEndian.Uint64(b[i*8:]))
		}
	}
}

// Pack serializes a Pupable to a fresh byte slice using a two-pass
// size-then-pack traversal.
func Pack(obj Pupable) ([]byte, error) {
	s := NewSizer()
	obj.Pup(s)
	if s.Err() != nil {
		return nil, s.Err()
	}
	pk := NewPacker(s.Size())
	obj.Pup(pk)
	if pk.Err() != nil {
		return nil, pk.Err()
	}
	if pk.Size() != s.Size() {
		return nil, fmt.Errorf("pup: inconsistent Pup traversal: sized %d bytes, packed %d", s.Size(), pk.Size())
	}
	return pk.Bytes(), nil
}

// Unpack restores a Pupable from a byte slice produced by Pack.
func Unpack(obj Pupable, data []byte) error {
	u := NewUnpacker(data)
	obj.Pup(u)
	if u.Err() != nil {
		return u.Err()
	}
	if u.Size() != len(data) {
		return fmt.Errorf("pup: unpack consumed %d of %d bytes", u.Size(), len(data))
	}
	return nil
}
