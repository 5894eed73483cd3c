package charm

import (
	"encoding/json"
	"fmt"

	"elastichpc/internal/ccs"
)

// StatusFunc reports application progress: it answers charm.query.
type StatusFunc func() ccs.StatusReply

// CCSOptions configures ServeCCS.
type CCSOptions struct {
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// Status supplies application progress for charm.query. Optional.
	Status StatusFunc
}

// CCSHandle is a live CCS endpoint attached to a runtime.
type CCSHandle struct {
	server *ccs.Server
	addr   string
}

// Addr returns the bound listen address.
func (h *CCSHandle) Addr() string { return h.addr }

// Close shuts the CCS endpoint down.
func (h *CCSHandle) Close() error { return h.server.Close() }

// ServeCCS exposes the runtime's shrink/expand/query commands over a CCS
// socket. Shrink and expand block until the application services the request
// at its next load-balancing step and the rescale completes, then return the
// acknowledgment — the ordering the operator relies on (paper §3.1: "After
// the Charm++ application returns an acknowledgment for the shrink
// operation, remove extra pods").
func (rt *Runtime) ServeCCS(opts CCSOptions) (*CCSHandle, error) {
	h := &CCSHandle{server: ccs.NewServer()}

	status := opts.Status
	if status == nil {
		status = func() ccs.StatusReply { return ccs.StatusReply{NumPEs: rt.NumPEs()} }
	}

	rescale := func(payload json.RawMessage) ([]byte, error) {
		var req ccs.RescaleRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("bad rescale request: %w", err)
		}
		if req.NewPEs < 1 {
			return nil, fmt.Errorf("cannot rescale to %d PEs", req.NewPEs)
		}
		return nil, <-rt.RequestRescale(req.NewPEs)
	}

	h.server.Handle(ccs.CmdShrink, rescale)
	h.server.Handle(ccs.CmdExpand, rescale)
	h.server.Handle(ccs.CmdQuery, func(json.RawMessage) ([]byte, error) {
		return json.Marshal(status())
	})
	h.server.Handle(ccs.CmdListPEs, func(json.RawMessage) ([]byte, error) {
		n := rt.NumPEs()
		pes := make([]int, n)
		for i := range pes {
			pes[i] = i
		}
		return json.Marshal(pes)
	})

	addr, err := h.server.Listen(opts.Addr)
	if err != nil {
		return nil, err
	}
	h.addr = addr
	return h, nil
}
