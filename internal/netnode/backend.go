package netnode

import (
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/wall"
)

// This file registers the process-per-node cluster as the third core.Backend,
// "net": real OS processes instead of goroutines, real sockets instead of
// channels, SIGKILL instead of cooperative teardown — over the same
// internal/wall session as the live backend, so the Config/Workload/
// fault-plan vocabulary, the admission policies and the ServiceReport fields
// are one implementation, every artifact driver runs unchanged, and
// core.VerifyOn("net", …) asserts the §2.1 determinacy guarantee across the
// process boundary.

// DefaultTimescale maps fault-plan virtual ticks to wall time, the same
// scale as the live backend so Burst/Cascade plans keep their shape.
const DefaultTimescale = wall.DefaultTimescale

// DefaultDeadline bounds Wait when the config sets no virtual-time budget.
const DefaultDeadline = wall.DefaultDeadline

// Backend runs workloads on process-per-node clusters. Default is the
// registered instance; mutate it (CLI flags do) before Open/Run.
type Backend struct {
	// Timescale is the wall duration of one virtual tick (0 ⇒ DefaultTimescale).
	Timescale time.Duration
	// Deadline bounds Wait when Config.Deadline is zero (0 ⇒ DefaultDeadline).
	Deadline time.Duration
	// TCP switches the interconnect from unix sockets to loopback TCP.
	TCP bool
}

// Default is the registered "net" backend instance; cmd wiring mutates its
// fields (e.g. -net-tcp) before use.
var Default = &Backend{}

func init() { core.MustRegisterBackend(Default) }

// Name implements core.Backend.
func (*Backend) Name() string { return "net" }

// spec reads the close totals after Shutdown: the children's drain counts
// arrive in their shutdown stats frames.
func (b *Backend) spec() wall.Spec {
	return wall.Spec{
		Name: "net", Pkg: "netnode", Timescale: b.Timescale, Deadline: b.Deadline,
		StatsAfterShutdown: true,
		Start: func(p wall.Params) (wall.Cluster, error) {
			return New(p.Procs, p.Seed, Options{TCP: b.TCP, NoRecovery: !p.Recover, Eval: p.Eval})
		},
	}
}

// Run implements core.Backend as the degenerate service stream, exactly
// like the other two backends.
func (b *Backend) Run(cfg core.Config, w core.Workload, plan *faults.Plan) (*core.Report, error) {
	return b.spec().Run(cfg, w, plan)
}

// Open implements core.SessionBackend: fork the node processes and keep the
// cluster serving until Close.
func (b *Backend) Open(cfg core.Config) (core.Session, error) { return b.spec().Open(cfg) }
