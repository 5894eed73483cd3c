package shm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteReadDelete(t *testing.T) {
	s := NewStore(0)
	if err := s.Write("ckpt/0", []byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := s.Read("ckpt/0")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got) != "hello" {
		t.Errorf("Read = %q, want hello", got)
	}
	s.DeletePrefix("ckpt/0")
	if _, err := s.Read("ckpt/0"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Read after DeletePrefix: err = %v, want ErrNotFound", err)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	s := NewStore(0)
	if err := s.Write("k", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read("k")
	got[0] = 99
	again, _ := s.Read("k")
	if again[0] != 1 {
		t.Error("Read returned aliased storage")
	}
}

func TestWriteCopiesInput(t *testing.T) {
	s := NewStore(0)
	buf := []byte{1, 2, 3}
	if err := s.Write("k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	got, _ := s.Read("k")
	if got[0] != 1 {
		t.Error("Write aliased caller's buffer")
	}
}

func TestCapacityLimit(t *testing.T) {
	s := NewStore(10)
	if err := s.Write("a", make([]byte, 6)); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := s.Write("b", make([]byte, 5)); !errors.Is(err, ErrNoSpace) {
		t.Errorf("over-limit write: err = %v, want ErrNoSpace", err)
	}
	// Replacing a segment only counts the delta.
	if err := s.Write("a", make([]byte, 10)); err != nil {
		t.Errorf("replace within limit: %v", err)
	}
	if s.used != 10 {
		t.Errorf("Used = %d, want 10", s.used)
	}
}

func TestUsedAccounting(t *testing.T) {
	s := NewStore(0)
	if err := s.Write("a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("b", make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if s.used != 150 {
		t.Fatalf("Used = %d, want 150", s.used)
	}
	if err := s.Write("a", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if s.used != 60 {
		t.Fatalf("Used after replace = %d, want 60", s.used)
	}
	s.DeletePrefix("b")
	if s.used != 10 {
		t.Fatalf("Used after delete = %d, want 10", s.used)
	}
	s.DeletePrefix("nonexistent") // no-op
	if s.used != 10 {
		t.Fatalf("Used after no-op delete = %d, want 10", s.used)
	}
}

func TestDeletePrefix(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 5; i++ {
		if err := s.Write(fmt.Sprintf("gen1/pe%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Write("gen2/pe0", []byte{9}); err != nil {
		t.Fatal(err)
	}
	if n := s.DeletePrefix("gen1/"); n != 5 {
		t.Errorf("DeletePrefix removed %d, want 5", n)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if s.used != 1 {
		t.Errorf("Used = %d, want 1", s.used)
	}
}

func TestKeysSorted(t *testing.T) {
	s := NewStore(0)
	for _, k := range []string{"c", "a", "b"} {
		if err := s.Write(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.KeysPrefix("")
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Errorf(`KeysPrefix("") = %v, want [a b c]`, keys)
	}
	if kp := s.KeysPrefix("b"); len(kp) != 1 || kp[0] != "b" {
		t.Errorf("KeysPrefix(b) = %v", kp)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("seg%d", g)
			for i := 0; i < 200; i++ {
				if err := s.Write(key, make([]byte, i%64)); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
				if _, err := s.Read(key); err != nil {
					t.Errorf("Read: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// used must equal the sum of final segment sizes.
	var want int64
	for _, k := range s.KeysPrefix("") {
		d, err := s.Read(k)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(len(d))
	}
	if s.used != want {
		t.Errorf("Used = %d, want %d", s.used, want)
	}
}

// Property: used always equals the sum of stored segment lengths under an
// arbitrary sequence of writes and deletes.
func TestQuickUsedInvariant(t *testing.T) {
	type op struct {
		Key    uint8
		Size   uint8
		Delete bool
	}
	f := func(ops []op) bool {
		s := NewStore(0)
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%8)
			if o.Delete {
				s.DeletePrefix(key)
			} else if err := s.Write(key, make([]byte, o.Size)); err != nil {
				return false
			}
		}
		var want int64
		for _, k := range s.KeysPrefix("") {
			d, err := s.Read(k)
			if err != nil {
				return false
			}
			want += int64(len(d))
		}
		return s.used == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
