package livenet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/proto"
	"repro/internal/registry"
)

// This file implements the core.SessionBackend capability on the live
// backend: Open keeps the goroutine node network up across requests, Submit
// enqueues root applications that the persistent nodes serve concurrently,
// and Inject replays fault plans on the wall clock against the stream's
// start — so kills land between and inside requests, the online-recovery
// regime HEAL-style evaluations measure. The stream clock is wall
// microseconds since Open; fault stamps, admission and completion stamps
// all live on it.

// liveParams is the validated shape of a core.Config on the live backend.
type liveParams struct {
	procs       int
	seed        int64
	scheme      string
	eval        string
	timescale   time.Duration
	deadline    time.Duration
	maxInFlight int
	shedPolicy  bool // true = "shed", false = "queue"
	queueBound  int  // "queue:N" FIFO cap; 0 = unbounded
}

// prepare validates the config for the live substrate and fills defaults —
// the checks Run has always applied, shared by the one-shot and session
// paths so the two can never diverge.
func (b Backend) prepare(cfg core.Config) (liveParams, error) {
	p := liveParams{procs: cfg.Procs, seed: cfg.Seed, scheme: cfg.Recovery}
	if p.procs == 0 {
		p.procs = 8
	}
	if p.seed == 0 {
		p.seed = 1
	}
	if p.scheme == "" {
		p.scheme = "rollback"
	}
	if p.scheme != "rollback" && p.scheme != "none" {
		return p, fmt.Errorf("livenet: recovery %q not supported on the live backend (rollback per-parent reissue, or none)", cfg.Recovery)
	}
	p.eval = cfg.Eval
	if p.eval == "" {
		p.eval = core.DefaultEval
	}
	if !lang.KnownEvaluator(p.eval) {
		return p, registry.Unknown("livenet", "evaluator", p.eval, lang.Evaluators())
	}
	if cfg.Placement != "" && cfg.Placement != "random" {
		return p, fmt.Errorf("livenet: placement %q not supported on the live backend (random only)", cfg.Placement)
	}
	// Bounded admission runs on both backends; the policy vocabulary is the
	// same as the simulator's.
	p.maxInFlight = cfg.MaxInFlight
	switch cfg.Admission {
	case "", "queue":
	case "shed":
		p.shedPolicy = true
	default:
		var n int
		if cnt, err := fmt.Sscanf(cfg.Admission, "queue:%d", &n); cnt == 1 && err == nil &&
			fmt.Sprintf("queue:%d", n) == cfg.Admission && n > 0 {
			p.queueBound = n
			break
		}
		return p, fmt.Errorf("livenet: unknown admission policy %q (queue, queue:N, shed)", cfg.Admission)
	}
	// Reject the sim-only knobs that would change what a run measures if
	// silently dropped. (Topology, AncestorDepth, Trace, ArrivalEvery and
	// Arrival are inert here — the channel interconnect is complete,
	// per-parent reissue has no ancestor escalation to tune, there is no
	// event log, and real time needs no synthetic arrival spacing: live load
	// drivers pace their own Submit calls from the workload.Arrival schedule
	// — so they are documented as ignored rather than rejected.)
	switch {
	case cfg.RecoveryBudget != 0 || cfg.RecoveryPeriod != 0:
		return p, errors.New("livenet: recovery budget/period pace the incremental scheme, which only the simulator implements")
	case len(cfg.Replication) > 0:
		return p, errors.New("livenet: §5.3 task replication is not implemented on the live backend")
	case cfg.DisableCheckpoints:
		return p, errors.New("livenet: checkpoints cannot be disabled on the live backend (parents always retain child packets)")
	case cfg.Raw != nil:
		return p, errors.New("livenet: Config.Raw holds simulator machine knobs; the live backend takes none of them")
	}
	p.timescale = b.Timescale
	if p.timescale <= 0 {
		p.timescale = DefaultTimescale
	}
	p.deadline = b.Deadline
	if p.deadline <= 0 {
		p.deadline = DefaultDeadline
	}
	if cfg.Deadline > 0 {
		p.deadline = time.Duration(cfg.Deadline) * p.timescale
	}
	return p, nil
}

// Open implements core.SessionBackend: bring the node network up and keep
// it serving until Close.
func (b Backend) Open(cfg core.Config) (core.Session, error) {
	p, err := b.prepare(cfg)
	if err != nil {
		return nil, err
	}
	c, err := New(nil, p.procs, p.seed)
	if err != nil {
		return nil, err
	}
	if p.scheme == "none" {
		c.DisableRecovery()
	}
	if err := c.SetEvaluator(p.eval); err != nil {
		return nil, err // unreachable: prepare validated the name
	}
	s := &session{
		p:      p,
		c:      c,
		start:  time.Now(),
		stop:   make(chan struct{}),
		killed: map[proto.ProcID]bool{},
	}
	c.SetRequestDoneHook(s.onRequestDone)
	return s, nil
}

// session is one open live service stream.
type session struct {
	p     liveParams
	c     *Cluster
	start time.Time

	mu       sync.Mutex
	stop     chan struct{}
	wg       sync.WaitGroup
	killed   map[proto.ProcID]bool
	closed   bool
	closeRep *core.Report

	// Bounded-admission state, guarded by mu. A slot is taken at admission
	// (the Cluster.Submit) and freed at the request's first root delivery —
	// symmetric with the simulator's accounting, so the two backends make
	// identical admit/shed decisions on the same stream order.
	inflight int
	queue    []*liveRequest
	queueMax int
	shed     int
}

// Unit implements core.Session.
func (s *session) Unit() core.TimeUnit { return core.WallMicros }

// Submit implements core.Session: the request is offered immediately —
// real time is the live stream's arrival discipline — and admission control
// decides at the offer, in Submit order: a free slot (or an unbounded
// stream) admits to the node network now; a full cluster sheds or queues
// per the policy. The mutex is held across the closed check and the cluster
// submit so a concurrent Close can never shut the node network down between
// the two (a spawn into a shut-down cluster would silently never complete).
func (s *session) Submit(w core.Workload) (core.SessionRequest, error) {
	if w.Program == nil {
		return nil, errors.New("livenet: program required")
	}
	if _, ok := w.Program.Func(w.Fn); !ok {
		// Validated at the offer so a queued request cannot fail admission
		// later, long after the submitter's error path has gone.
		return nil, fmt.Errorf("livenet: unknown function %q", w.Fn)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("livenet: session closed")
	}
	now := time.Now()
	if s.p.maxInFlight > 0 && s.inflight >= s.p.maxInFlight {
		if s.p.shedPolicy || (s.p.queueBound > 0 && len(s.queue) >= s.p.queueBound) {
			s.shed++
			return &liveRequest{s: s, shed: true, offered: now}, nil
		}
		lr := &liveRequest{s: s, w: w, offered: now, admitCh: make(chan struct{})}
		s.queue = append(s.queue, lr)
		if len(s.queue) > s.queueMax {
			s.queueMax = len(s.queue)
		}
		return lr, nil
	}
	r, err := s.c.Submit(w.Program, w.Fn, w.Args)
	if err != nil {
		return nil, err
	}
	s.inflight++
	return &liveRequest{s: s, r: r, offered: now, arrived: now}, nil
}

// onRequestDone frees the completed request's admission slot and installs
// the queue head, if any. It runs outside the cluster's request lock (the
// hook contract), so taking mu and re-entering Cluster.Submit is safe.
func (s *session) onRequestDone() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if s.closed || len(s.queue) == 0 ||
		(s.p.maxInFlight > 0 && s.inflight >= s.p.maxInFlight) {
		return
	}
	lr := s.queue[0]
	s.queue = s.queue[1:]
	// Stamped before Submit: the answer, and with it doneAt, may arrive
	// before Submit returns.
	lr.arrived = time.Now()
	r, err := s.c.Submit(lr.w.Program, lr.w.Fn, lr.w.Args)
	if err == nil {
		s.inflight++
	}
	lr.r, lr.admitErr = r, err
	close(lr.admitCh)
}

// Inject implements core.Session: validate the plan (the live backend's
// historical restrictions, plus a cumulative at-least-one-survivor check
// across every injected plan) and replay it on the wall clock from the
// stream's start. Returned stamps are the planned wall offsets in µs;
// faults whose offset already passed fire immediately.
func (s *session) Inject(plan *faults.Plan) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("livenet: session closed")
	}
	if plan == nil {
		plan = faults.None()
	}
	if err := plan.Validate(s.p.procs); err != nil {
		return nil, err
	}
	for _, f := range plan.Faults {
		if f.Kind == faults.Corrupt {
			return nil, fmt.Errorf("livenet: fault %v: value corruption needs §5.3 voting, which only the simulator implements", f)
		}
	}
	union := map[proto.ProcID]bool{}
	for q := range s.killed {
		union[q] = true
	}
	for _, q := range plan.Procs() {
		union[q] = true
	}
	if len(union) >= s.p.procs {
		return nil, fmt.Errorf("livenet: plan kills %d of %d nodes; at least one must survive", len(union), s.p.procs)
	}
	s.killed = union
	sorted := plan.Sorted()
	stamps := make([]int64, 0, len(sorted))
	for _, f := range sorted {
		stamps = append(stamps, int64(time.Duration(f.At)*s.p.timescale/time.Microsecond))
	}
	// One scheduler goroutine per plan walks the time-sorted faults and
	// kills each node at its wall-scaled instant relative to the stream
	// start. Kills of already-dead nodes (overlapping merged plans) are
	// ignored, like the simulator's post-death injections.
	s.wg.Add(1)
	go func(sorted []faults.Fault) {
		defer s.wg.Done()
		for _, f := range sorted {
			if d := time.Duration(f.At)*s.p.timescale - time.Since(s.start); d > 0 {
				select {
				case <-time.After(d):
				case <-s.stop:
					return
				}
			}
			select {
			case <-s.stop:
				return
			default:
			}
			_ = s.c.Kill(int(f.Proc))
		}
	}(sorted)
	return stamps, nil
}

// Close implements core.Session: stop the fault schedulers, shut the node
// network down, and report the stream totals. The mutex is released before
// Shutdown — node goroutines finishing their last deliveries fire the
// admission hook, which takes the mutex; holding it across the shutdown
// barrier would deadlock the teardown.
func (s *session) Close() (*core.Report, error) {
	s.mu.Lock()
	if s.closed {
		rep := s.closeRep
		s.mu.Unlock()
		return rep, nil
	}
	s.closed = true
	close(s.stop)
	queueMax := s.queueMax
	s.mu.Unlock()
	s.wg.Wait()
	spawned, reissued, drained := s.c.Stats()
	rep := &core.Report{
		Backend:        "live",
		Makespan:       time.Since(s.start).Microseconds(),
		Unit:           core.WallMicros,
		Messages:       s.c.Messages(),
		MsgBytes:       s.c.MsgBytes(),
		Spawned:        spawned,
		Reissued:       reissued,
		Drained:        drained,
		Recoveries:     reissued,
		Procs:          s.p.procs,
		Scheme:         s.p.scheme,
		Placement:      "random",
		QueueDepthMax:  queueMax,
		ReissuesByNode: s.c.ReissuesByNode(),
	}
	s.c.Shutdown()
	s.mu.Lock()
	s.closeRep = rep
	s.mu.Unlock()
	return rep, nil
}

// liveRequest implements core.SessionRequest. The offer stamp is set at
// Submit; a request the admission queue held gets its r and arrived fields
// when onRequestDone installs it (the admitCh close publishes them), a shed
// request never gets either.
type liveRequest struct {
	s       *session
	r       *Request
	w       core.Workload
	offered time.Time
	arrived time.Time

	shed     bool
	admitCh  chan struct{} // non-nil iff the request was queued
	admitErr error

	once sync.Once
	rep  *core.Report
	err  error
}

// baseReport is the per-request report skeleton.
func (lr *liveRequest) baseReport() *core.Report {
	s := lr.s
	return &core.Report{
		Backend:   "live",
		Unit:      core.WallMicros,
		Procs:     s.p.procs,
		Scheme:    s.p.scheme,
		Placement: "random",
	}
}

// Wait implements core.SessionRequest: block for the answer up to the
// per-request deadline, counted from the request's admission (the
// documented Config.Deadline contract — so draining a wedged stream of N
// requests costs one budget, not N; a queued request's budget starts when
// it gets its slot, and its wait for that slot is bounded by the budget
// from its offer). An answer already delivered is accepted even after the
// budget; a timeout is not an error — the report says Completed false and
// the stream keeps serving. A shed request reports immediately with the
// typed core.ErrShed.
func (lr *liveRequest) Wait() (*core.Report, error) {
	lr.once.Do(func() {
		s := lr.s
		if lr.shed {
			rep := lr.baseReport()
			rep.Request = -1 // never admitted; no stream index exists
			rep.Shed = true
			rep.ArrivedAt = lr.offered.Sub(s.start).Microseconds()
			lr.rep, lr.err = rep, core.ErrShed
			return
		}
		if lr.admitCh != nil {
			admitBudget := s.p.deadline - time.Since(lr.offered)
			if admitBudget < 0 {
				admitBudget = 0
			}
			select {
			case <-lr.admitCh:
				if lr.admitErr != nil {
					lr.err = lr.admitErr
					return
				}
			case <-time.After(admitBudget):
				// Still queued at the budget: a timeout, like any admitted
				// request that never answered.
				rep := lr.baseReport()
				rep.Request = -1
				rep.ArrivedAt = lr.offered.Sub(s.start).Microseconds()
				rep.Makespan = time.Since(s.start).Microseconds() - rep.ArrivedAt
				lr.rep = rep
				return
			case <-s.stop:
				rep := lr.baseReport()
				rep.Request = -1
				rep.ArrivedAt = lr.offered.Sub(s.start).Microseconds()
				rep.Makespan = time.Since(s.start).Microseconds() - rep.ArrivedAt
				lr.rep = rep
				return
			}
		}
		var v expr.Value
		var waitErr error
		if remaining := s.p.deadline - time.Since(lr.arrived); remaining > 0 {
			v, waitErr = s.c.WaitRequest(lr.r, remaining)
		} else {
			select {
			case v = <-lr.r.resultCh:
			default:
				waitErr = errors.New("livenet: request budget already spent")
			}
		}
		rep := lr.baseReport()
		rep.Request = lr.r.ID()
		rep.ArrivedAt = lr.arrived.Sub(s.start).Microseconds()
		rep.QueuedFor = lr.arrived.Sub(lr.offered).Microseconds()
		if waitErr == nil {
			rep.Completed = true
			rep.Answer = v
			// Stamped at delivery, not here: the caller may look late.
			rep.DoneAt = lr.r.doneAt.Sub(s.start).Microseconds()
			rep.Makespan = rep.DoneAt - rep.ArrivedAt
		} else {
			rep.Makespan = time.Since(s.start).Microseconds() - rep.ArrivedAt
		}
		lr.rep = rep
	})
	return lr.rep, lr.err
}
