package conformance

import (
	"fmt"

	"elastichpc/internal/cluster"
	"elastichpc/internal/federation"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// RecordSim runs one simulator configuration over a workload and captures
// its stream: the decision log (when cfg.LogDecisions is set) plus the
// bit-exact result summary.
func RecordSim(cfg sim.Config, w workload.Workload) (*Stream, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := s.Run(w)
	if err != nil {
		return nil, err
	}
	return simStream(s, res), nil
}

// simStream captures a finished simulator's decision log and summary.
func simStream(s *sim.Simulator, res sim.Result) *Stream {
	return &Stream{
		Version:   StreamVersion,
		Decisions: FromDecisions(s.Decisions()),
		Summary:   SummaryOf(res),
	}
}

// RecordStepped is RecordSim driven through the stepping surface instead of
// Run: Begin, StepTo every `every` seconds until the timeline drains, Finish.
func RecordStepped(cfg sim.Config, w workload.Workload, every float64) (*Stream, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Begin(w); err != nil {
		return nil, err
	}
	for t := every; !s.Drained(); t += every {
		if err := s.StepTo(t); err != nil {
			return nil, err
		}
	}
	res, err := s.Finish()
	if err != nil {
		return nil, err
	}
	return simStream(s, res), nil
}

// RecordCluster runs one emulated-cluster configuration over a workload and
// captures its stream (decision log when cfg.LogDecisions is set).
func RecordCluster(cfg cluster.Config, w workload.Workload) (*Stream, error) {
	res, decs, err := cluster.RunRecorded(cfg, w)
	if err != nil {
		return nil, err
	}
	return &Stream{
		Version:   StreamVersion,
		Decisions: FromDecisions(decs),
		Summary:   SummaryOf(res),
	}, nil
}

// RecordFederation runs one federation configuration and captures the fleet
// stream: the migration log, the fleet summary, and one member sub-stream
// per cluster (with decisions for members that logged them).
func RecordFederation(cfg federation.Config, w workload.Workload) (*Stream, error) {
	res, err := federation.Run(cfg, w)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		Version:    StreamVersion,
		Migrations: res.Migrations,
		Summary:    FleetSummaryOf(res),
		Members:    make([]*Stream, len(res.Members)),
	}
	for i, m := range res.Members {
		sub := &Stream{
			Version: StreamVersion,
			Label:   fmt.Sprintf("cluster%d", i),
			Summary: SummaryOf(m),
		}
		if res.MemberDecisions != nil {
			sub.Decisions = FromDecisions(res.MemberDecisions[i])
		}
		s.Members[i] = sub
	}
	return s, nil
}
