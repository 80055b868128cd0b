package livenet

import (
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/wall"
)

// This file registers the goroutine cluster as the "live" core.Backend, so
// the same Config/Workload/Plan that drives the discrete-event simulator
// drives real concurrency. The session itself — validation, admission,
// fault replay, per-request budgets — is internal/wall's, shared with the
// net backend. The mapping:
//
//   - Config.Procs and Config.Seed carry over directly (seeded placement:
//     every node draws destinations from an rng derived from the seed).
//   - Fault plans are scheduled on the wall clock: a fault at virtual tick t
//     fires t×Timescale after the stream opens, so Burst/Cascade/Correlated
//     plans keep their shape as real durations. Both crash kinds map to Kill
//     — the live network announces deaths to survivors; silent-crash timeout
//     detection is a simulator-only mechanism. Corrupt faults are rejected
//     (no voting on the live path).
//   - Config.Deadline (a virtual-time budget) maps through Timescale to a
//     wall deadline bounding Wait, so a hung recovery fails fast instead of
//     timing out CI.
//   - Config.Topology is ignored for connectivity: the channel interconnect
//     is a complete graph. Placement must be "random" (the only live policy)
//     and Recovery "rollback" (per-parent reissue, §3; the default) or
//     "none" (kills go unannounced and lost work stays lost, so a faulted
//     run reports non-completion at the deadline, like the simulator's).
//
// Run itself verifies nothing — exactly like the simulator backend — so the
// substrates share one contract; the determinacy check (§2.1, answer ==
// lang.RefEval) is one call away via core.VerifyOn("live", …).

// DefaultTimescale is the wall-clock duration of one virtual tick when
// mapping fault plans and deadlines.
const DefaultTimescale = wall.DefaultTimescale

// DefaultDeadline bounds Wait when the config sets no virtual-time budget.
const DefaultDeadline = wall.DefaultDeadline

// Backend runs workloads on the live goroutine cluster. The zero value is
// the registered "live" backend; construct one directly to override the
// tick-to-wall Timescale or the Wait Deadline.
type Backend struct {
	// Timescale is the wall duration of one virtual tick (0 ⇒ DefaultTimescale).
	Timescale time.Duration
	// Deadline bounds Wait when Config.Deadline is zero (0 ⇒ DefaultDeadline).
	Deadline time.Duration
}

func init() { core.MustRegisterBackend(Backend{}) }

// Name implements core.Backend.
func (Backend) Name() string { return "live" }

func (b Backend) spec() wall.Spec {
	return wall.Spec{
		Name: "live", Pkg: "livenet", Timescale: b.Timescale, Deadline: b.Deadline,
		Start: func(p wall.Params) (wall.Cluster, error) { return New(p.Procs, p.Seed, p.Recover, p.Eval) },
	}
}

// Run implements core.Backend as the degenerate service stream.
func (b Backend) Run(cfg core.Config, w core.Workload, plan *faults.Plan) (*core.Report, error) {
	return b.spec().Run(cfg, w, plan)
}

// Open implements core.SessionBackend: bring the node network up and keep
// it serving until Close.
func (b Backend) Open(cfg core.Config) (core.Session, error) { return b.spec().Open(cfg) }
