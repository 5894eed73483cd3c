// Package ccs implements a Converse Client-Server style control channel.
// In Charm++, CCS lets an external program send commands to a running
// parallel application over a socket; the paper's scheduler uses it to
// deliver shrink and expand signals (§2.2, §3.1).
//
// The wire protocol is a 4-byte big-endian length prefix followed by a JSON
// frame. Handlers are registered by command name; each request gets exactly
// one reply.
package ccs

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Well-known command names used by the elastic scheduler.
const (
	CmdShrink  = "charm.shrink"  // payload: RescaleRequest
	CmdExpand  = "charm.expand"  // payload: RescaleRequest
	CmdQuery   = "charm.query"   // payload: none; reply: StatusReply
	CmdListPEs = "charm.listpes" // payload: none; reply: []int
)

// maxFrame bounds a frame to guard against corrupt length prefixes.
const maxFrame = 16 << 20

// Request is one CCS command frame.
type Request struct {
	Command string          `json:"cmd"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Reply is the server's response frame.
type Reply struct {
	OK      bool            `json:"ok"`
	Error   string          `json:"error,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// RescaleRequest asks the application to change its PE count.
type RescaleRequest struct {
	// NewPEs is the target number of PEs.
	NewPEs int `json:"newPEs"`
	// Nodelist optionally carries the updated worker list for an expand.
	Nodelist []string `json:"nodelist,omitempty"`
}

// StatusReply reports application progress: the charm.query reply, and what
// the application's AcceptRescale hook reads to decline a rescale (paper §6).
type StatusReply struct {
	NumPEs        int     `json:"numPEs"`
	Iteration     int     `json:"iteration"`
	TotalIters    int     `json:"totalIters"`
	DoneFraction  float64 `json:"doneFraction"`
	RescaleEvents int     `json:"rescaleEvents"`
}

// Handler processes one command. The returned bytes become Reply.Payload.
type Handler func(payload json.RawMessage) ([]byte, error)

// Server serves CCS requests for one application instance.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	ln       net.Listener
	wg       sync.WaitGroup
	closed   bool
}

// NewServer returns a server with no handlers registered.
func NewServer() *Server {
	return &Server{handlers: make(map[string]Handler)}
}

// Handle registers h for the given command, replacing any previous handler.
func (s *Server) Handle(cmd string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[cmd] = h
}

// Listen starts serving on addr ("127.0.0.1:0" for an ephemeral port) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ccs: listen: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.closed = false
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	for {
		var req Request
		if err := readFrame(conn, &req); err != nil {
			return
		}
		s.mu.RLock()
		h, ok := s.handlers[req.Command]
		s.mu.RUnlock()
		var rep Reply
		if !ok {
			rep = Reply{OK: false, Error: fmt.Sprintf("unknown command %q", req.Command)}
		} else if out, err := h(req.Payload); err != nil {
			rep = Reply{OK: false, Error: err.Error()}
		} else {
			rep = Reply{OK: true, Payload: out}
		}
		if err := writeFrame(conn, &rep); err != nil {
			return
		}
	}
}

// Close stops the listener and waits for in-flight connections to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	ln := s.ln
	s.closed = true
	s.ln = nil
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Client is a CCS client connection. Safe for sequential use; guard with a
// mutex if shared across goroutines.
type Client struct {
	conn    net.Conn
	timeout time.Duration
}

// Dial connects to a CCS server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("ccs: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, timeout: timeout}, nil
}

// Call sends a command with a JSON-marshalable payload and decodes the reply
// payload into out (if out is non-nil).
func (c *Client) Call(cmd string, payload any, out any) error {
	var raw json.RawMessage
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return fmt.Errorf("ccs: marshal payload: %w", err)
		}
		raw = b
	}
	if c.timeout > 0 {
		deadline := time.Now().Add(c.timeout)
		if err := c.conn.SetDeadline(deadline); err != nil {
			return fmt.Errorf("ccs: set deadline: %w", err)
		}
	}
	if err := writeFrame(c.conn, &Request{Command: cmd, Payload: raw}); err != nil {
		return err
	}
	var rep Reply
	if err := readFrame(c.conn, &rep); err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("ccs: server error: %s", rep.Error)
	}
	if out != nil && len(rep.Payload) > 0 {
		if err := json.Unmarshal(rep.Payload, out); err != nil {
			return fmt.Errorf("ccs: decode reply: %w", err)
		}
	}
	return nil
}

// Shrink asks the application to shrink to newPEs and waits for the ack.
func (c *Client) Shrink(newPEs int) error {
	return c.Call(CmdShrink, RescaleRequest{NewPEs: newPEs}, nil)
}

// Expand asks the application to expand to newPEs with the given nodelist.
func (c *Client) Expand(newPEs int, nodelist []string) error {
	return c.Call(CmdExpand, RescaleRequest{NewPEs: newPEs, Nodelist: nodelist}, nil)
}

// Query fetches application progress.
func (c *Client) Query() (StatusReply, error) {
	var st StatusReply
	err := c.Call(CmdQuery, nil, &st)
	return st, err
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ccs: marshal frame: %w", err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("ccs: frame too large: %d bytes", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("ccs: write header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("ccs: write body: %w", err)
	}
	return nil
}

func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return errors.New("ccs: frame exceeds size limit")
	}
	// The body is read as it arrives, not into a buffer the prefix sizes: a
	// hostile prefix costs what the peer sends, not maxFrame.
	body, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(body) < int(n) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("ccs: read body: %w", err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("ccs: decode frame: %w", err)
	}
	return nil
}
