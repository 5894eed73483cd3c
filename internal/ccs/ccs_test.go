package ccs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestCallRoundTrip(t *testing.T) {
	s, addr := startServer(t)
	s.Handle("echo", func(p json.RawMessage) ([]byte, error) { return p, nil })

	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	var out map[string]int
	if err := c.Call("echo", map[string]int{"x": 7}, &out); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if out["x"] != 7 {
		t.Errorf("echo returned %v", out)
	}
}

func TestUnknownCommand(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("no.such.cmd", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("Call unknown command: err = %v", err)
	}
}

func TestHandlerError(t *testing.T) {
	s, addr := startServer(t)
	s.Handle("boom", func(json.RawMessage) ([]byte, error) {
		return nil, errors.New("deliberate failure")
	})
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("boom", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("err = %v", err)
	}
}

func TestShrinkExpandQueryHelpers(t *testing.T) {
	s, addr := startServer(t)
	var lastShrink, lastExpand atomic.Int64
	s.Handle(CmdShrink, func(p json.RawMessage) ([]byte, error) {
		var req RescaleRequest
		if err := json.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		lastShrink.Store(int64(req.NewPEs))
		return nil, nil
	})
	s.Handle(CmdExpand, func(p json.RawMessage) ([]byte, error) {
		var req RescaleRequest
		if err := json.Unmarshal(p, &req); err != nil {
			return nil, err
		}
		if len(req.Nodelist) != 2 {
			return nil, fmt.Errorf("nodelist has %d entries", len(req.Nodelist))
		}
		lastExpand.Store(int64(req.NewPEs))
		return nil, nil
	})
	s.Handle(CmdQuery, func(json.RawMessage) ([]byte, error) {
		return json.Marshal(StatusReply{NumPEs: 16, Iteration: 500, TotalIters: 1000, DoneFraction: 0.5})
	})

	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Shrink(8); err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if lastShrink.Load() != 8 {
		t.Errorf("server saw shrink to %d", lastShrink.Load())
	}
	if err := c.Expand(32, []string{"w0", "w1"}); err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if lastExpand.Load() != 32 {
		t.Errorf("server saw expand to %d", lastExpand.Load())
	}
	st, err := c.Query()
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if st.NumPEs != 16 || st.DoneFraction != 0.5 {
		t.Errorf("Query = %+v", st)
	}
}

func TestMultipleCallsSameConnection(t *testing.T) {
	s, addr := startServer(t)
	var n atomic.Int64
	s.Handle("count", func(json.RawMessage) ([]byte, error) {
		return json.Marshal(n.Add(1))
	})
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 5; i++ {
		var got int
		if err := c.Call("count", nil, &got); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got != i {
			t.Errorf("call %d returned %d", i, got)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	s, addr := startServer(t)
	s.Handle("echo", func(p json.RawMessage) ([]byte, error) { return p, nil })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				var out int
				if err := c.Call("echo", g*1000+i, &out); err != nil {
					t.Errorf("Call: %v", err)
					return
				}
				if out != g*1000+i {
					t.Errorf("echo mismatch: %d", out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestServerCloseUnblocksDial(t *testing.T) {
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Second close is safe.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := Dial(addr, 200*time.Millisecond); err == nil {
		t.Error("Dial succeeded after Close")
	}
}

// FuzzCCSFrame feeds readFrame hostile bytes: it must never panic, and a
// request it accepts must survive writeFrame → readFrame → writeFrame as the
// same bytes.
func FuzzCCSFrame(f *testing.F) {
	for _, req := range []Request{
		{Command: CmdExpand, Payload: json.RawMessage(`{"newPEs": 4, "nodelist": ["w0", "w1"]}`)},
		{Command: CmdQuery},
		{Command: "<&>", Payload: json.RawMessage(`null`)},
	} {
		var frame bytes.Buffer
		if err := writeFrame(&frame, &req); err != nil {
			f.Fatal(err)
		}
		f.Add(frame.Bytes())
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})      // a length past the limit
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, '{'}) // a length the body falls short of
	f.Add([]byte{0, 0, 0, 4, 'n', 'u', 'l', 'l'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if readFrame(bytes.NewReader(data), &req) != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := writeFrame(&once, &req); err != nil {
			t.Fatalf("writeFrame of an accepted request %+v: %v", req, err)
		}
		var again Request
		if err := readFrame(bytes.NewReader(once.Bytes()), &again); err != nil {
			t.Fatalf("readFrame of %q: %v", once.Bytes(), err)
		}
		if err := writeFrame(&twice, &again); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoded %q as %q (%v)", once.Bytes(), twice.Bytes(), err)
		}
	})
}
