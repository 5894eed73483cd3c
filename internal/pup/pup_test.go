package pup

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

type record struct {
	A   int
	B   int64
	U   uint64
	F   float64
	S   string
	Raw []byte
	Fs  []float64
	Is  []int
	Ok  bool
	By  byte
}

func (r *record) Pup(p *PUP) {
	p.Int(&r.A)
	p.Int64(&r.B)
	p.Uint64(&r.U)
	p.Float64(&r.F)
	p.String(&r.S)
	p.Bytes_(&r.Raw)
	p.Float64s(&r.Fs)
	p.Ints(&r.Is)
	p.Bool(&r.Ok)
	p.Byte(&r.By)
}

func TestPackUnpackRoundTrip(t *testing.T) {
	in := &record{
		A: -42, B: 1 << 40, U: math.MaxUint64, F: 3.14159,
		S: "hello chare", Raw: []byte{0, 1, 2, 255},
		Fs: []float64{1.5, -2.5, math.Inf(1)}, Is: []int{-1, 0, 7},
		Ok: true, By: 0x7f,
	}
	data, err := Pack(in)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	out := &record{}
	if err := Unpack(out, data); err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if out.A != in.A || out.B != in.B || out.U != in.U || out.F != in.F {
		t.Errorf("scalar mismatch: got %+v want %+v", out, in)
	}
	if out.S != in.S {
		t.Errorf("string mismatch: got %q want %q", out.S, in.S)
	}
	if string(out.Raw) != string(in.Raw) {
		t.Errorf("bytes mismatch: got %v want %v", out.Raw, in.Raw)
	}
	if len(out.Fs) != len(in.Fs) || out.Fs[0] != 1.5 || out.Fs[1] != -2.5 || !math.IsInf(out.Fs[2], 1) {
		t.Errorf("float64s mismatch: got %v", out.Fs)
	}
	if len(out.Is) != 3 || out.Is[0] != -1 || out.Is[2] != 7 {
		t.Errorf("ints mismatch: got %v", out.Is)
	}
	if !out.Ok || out.By != 0x7f {
		t.Errorf("bool/byte mismatch: got %+v", out)
	}
}

func TestEmptyValues(t *testing.T) {
	in := &record{}
	data, err := Pack(in)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	out := &record{S: "poison", Fs: []float64{9}}
	if err := Unpack(out, data); err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if out.S != "" || len(out.Fs) != 0 || len(out.Raw) != 0 {
		t.Errorf("zero-value round trip failed: %+v", out)
	}
}

func TestSizeMatchesPack(t *testing.T) {
	in := &record{S: "x", Fs: make([]float64, 100), Is: make([]int, 3)}
	s := NewSizer()
	in.Pup(s)
	data, err := Pack(in)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	if s.Size() != len(data) {
		t.Errorf("sizer reported %d, packed %d", s.Size(), len(data))
	}
}

func TestUnpackTruncatedFails(t *testing.T) {
	in := &record{S: "truncate me", Fs: []float64{1, 2, 3}}
	data, err := Pack(in)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	for _, cut := range []int{0, 1, 8, len(data) - 1} {
		out := &record{}
		if err := Unpack(out, data[:cut]); err == nil {
			t.Errorf("Unpack of %d/%d bytes succeeded, want error", cut, len(data))
		}
	}
}

func TestUnpackTrailingBytesFails(t *testing.T) {
	in := &record{}
	data, err := Pack(in)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	out := &record{}
	if err := Unpack(out, append(data, 0xde)); err == nil {
		t.Error("Unpack with trailing byte succeeded, want error")
	}
}

func TestCorruptLengthPrefix(t *testing.T) {
	in := &record{S: "abc"}
	data, err := Pack(in)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	// The string length prefix sits after A, B, U, F (4 × 8 bytes).
	for i := 32; i < 40; i++ {
		data[i] = 0xff
	}
	out := &record{}
	if err := Unpack(out, data); err == nil {
		t.Error("Unpack with corrupt length prefix succeeded, want error")
	}
}

func TestModeString(t *testing.T) {
	if Sizing.String() != "sizing" || Packing.String() != "packing" || Unpacking.String() != "unpacking" {
		t.Error("Mode.String mismatch")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should still stringify")
	}
}

// Property: pack→unpack is the identity for arbitrary records.
func TestQuickRoundTrip(t *testing.T) {
	f := func(a int64, fval float64, s string, raw []byte, fs []float64, ok bool) bool {
		if math.IsNaN(fval) {
			fval = 0 // NaN != NaN would fail equality below
		}
		for i, x := range fs {
			if math.IsNaN(x) {
				fs[i] = 0
			}
		}
		in := &record{A: int(a), B: a, F: fval, S: s, Raw: raw, Fs: fs, Ok: ok}
		data, err := Pack(in)
		if err != nil {
			return false
		}
		out := &record{}
		if err := Unpack(out, data); err != nil {
			return false
		}
		if out.A != in.A || out.B != in.B || out.F != in.F || out.S != in.S || out.Ok != in.Ok {
			return false
		}
		if len(out.Raw) != len(in.Raw) || len(out.Fs) != len(in.Fs) {
			return false
		}
		for i := range in.Raw {
			if out.Raw[i] != in.Raw[i] {
				return false
			}
		}
		for i := range in.Fs {
			if out.Fs[i] != in.Fs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the sizer always agrees with the packer.
func TestQuickSizeAgreement(t *testing.T) {
	f := func(s string, fs []float64, is []int) bool {
		in := &record{S: s, Fs: fs, Is: is}
		sz := NewSizer()
		in.Pup(sz)
		data, err := Pack(in)
		return err == nil && sz.Size() == len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPackGrid(b *testing.B) {
	in := &record{Fs: make([]float64, 256*256)}
	b.SetBytes(int64(len(in.Fs) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackGrid(b *testing.B) {
	in := &record{Fs: make([]float64, 256*256)}
	data, err := Pack(in)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(in.Fs) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := &record{}
		if err := Unpack(out, data); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzUnpack feeds Unpack hostile bytes: it must never panic nor size an
// allocation past what the input holds, and a record it accepts must pack to
// bytes that unpack and pack again to the same bytes.
func FuzzUnpack(f *testing.F) {
	full, err := Pack(&record{
		A: -42, B: 1 << 40, U: math.MaxUint64, F: math.NaN(), S: "hello chare",
		Raw: []byte{0, 255}, Fs: []float64{1.5, math.Inf(-1)}, Is: []int{-1, 7}, Ok: true, By: 9,
	})
	if err != nil {
		f.Fatal(err)
	}
	empty, err := Pack(&record{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(empty)
	// An empty record's Fs and Is length prefixes sit at bytes 48 and 56. A
	// length of 2^61 elements wraps a check of n*8 bytes to zero.
	for _, at := range []int{48, 56} {
		hostile := append([]byte(nil), empty...)
		binary.LittleEndian.PutUint64(hostile[at:], 1<<61)
		f.Add(hostile)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r record
		if Unpack(&r, data) != nil {
			return
		}
		once, err := Pack(&r)
		if err != nil {
			t.Fatalf("Pack of an accepted record %+v: %v", r, err)
		}
		var again record
		if err := Unpack(&again, once); err != nil {
			t.Fatalf("Unpack of %x: %v", once, err)
		}
		if twice, err := Pack(&again); err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("re-packed %x as %x (%v)", once, twice, err)
		}
	})
}
