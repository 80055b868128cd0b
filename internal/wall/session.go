// Package wall is the wall-clock service session shared by the live
// (goroutine) and net (process) backends, and the super-root Host their
// clusters embed. A backend supplies only a Spec — its names, its
// tick-to-wall scaling and a cluster constructor — and gets the whole
// core.SessionBackend contract: config validation, queue/queue:N/shed
// admission, fault replay on the wall clock, per-request budgets and the
// degenerate-stream Run.
//
// The stream clock is wall microseconds since Open; fault stamps, admission
// and completion stamps all live on it, so kills land between and inside
// requests — the online-recovery regime HEAL-style evaluations measure.
package wall

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

// DefaultTimescale is the wall-clock duration of one virtual tick when
// mapping fault plans and deadlines: 2µs keeps the paper's fault times
// (thousands of ticks) landing mid-run for the bundled workloads.
const DefaultTimescale = 2 * time.Microsecond

// DefaultDeadline bounds Wait when the config sets no virtual-time budget.
const DefaultDeadline = 30 * time.Second

// Cluster is a running node network. It must embed *Host, which serves
// the request table; the methods here are the transport's own.
type Cluster interface {
	host() *Host
	// Kill crashes node id; the transport announces the death and the Host
	// reissues the roots placed there.
	Kill(id int) error
	// Shutdown stops every node and calls Host.Stop. Called exactly once.
	Shutdown()
	// Stats reports the stream's spawned, reissued and drained totals.
	Stats() (spawned, reissued, drained int64)
	// ReissuesByNode is the per-node count of retained child packets each
	// node re-sent as a parent after peer deaths.
	ReissuesByNode() []int64
}

// Params is the validated shape of a core.Config a cluster is built from.
type Params struct {
	Procs   int
	Seed    int64
	Recover bool // false under the "none" scheme: lost work stays lost
	Eval    string
}

// Spec describes one wall-clock backend.
type Spec struct {
	Name string // registry name and Report.Backend
	Pkg  string // error prefix
	// Timescale and Deadline are the backend's overrides (0 ⇒ defaults).
	Timescale, Deadline time.Duration
	// StatsAfterShutdown reads the close totals after the cluster is torn
	// down — for transports whose nodes report counters on the way out.
	StatsAfterShutdown bool
	// Start builds the cluster.
	Start func(Params) (Cluster, error)
}

// params is the validated config plus the session knobs.
type params struct {
	Params
	scheme      string
	timescale   time.Duration
	deadline    time.Duration
	maxInFlight int
	shedPolicy  bool // true = "shed", false = "queue"
	queueBound  int  // "queue:N" FIFO cap; 0 = unbounded
}

// prepare validates the config for a wall-clock substrate and fills
// defaults, shared by the one-shot and session paths so the two can never
// diverge.
func (sp Spec) prepare(cfg core.Config) (params, error) {
	p := params{Params: Params{Procs: cfg.Procs, Seed: cfg.Seed, Eval: cfg.Eval}, scheme: cfg.Recovery}
	if p.Procs == 0 {
		p.Procs = 8
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.scheme == "" {
		p.scheme = "rollback"
	}
	if p.scheme != "rollback" && p.scheme != "none" {
		return p, fmt.Errorf("%s: recovery %q not supported on the %s backend (rollback per-parent reissue, or none)", sp.Pkg, cfg.Recovery, sp.Name)
	}
	p.Recover = p.scheme == "rollback"
	if p.Eval == "" {
		p.Eval = core.DefaultEval
	}
	if !lang.KnownEvaluator(p.Eval) {
		return p, registry.Unknown(sp.Pkg, "evaluator", p.Eval, lang.Evaluators())
	}
	if cfg.Placement != "" && cfg.Placement != "random" {
		return p, fmt.Errorf("%s: placement %q not supported on the %s backend (random only)", sp.Pkg, cfg.Placement, sp.Name)
	}
	// Bounded admission uses the simulator's policy vocabulary.
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
		return p, fmt.Errorf("%s: unknown admission policy %q (queue, queue:N, shed)", sp.Pkg, cfg.Admission)
	}
	// Reject the sim-only knobs that would change what a run measures if
	// silently dropped. (Topology, AncestorDepth, Trace, ArrivalEvery and
	// Arrival are inert here — the interconnect is complete, per-parent
	// reissue has no ancestor escalation to tune, there is no event log, and
	// real time needs no synthetic arrival spacing: load drivers pace their
	// own Submit calls from the workload.Arrival schedule — so they are
	// documented as ignored rather than rejected.)
	switch {
	case cfg.RecoveryBudget != 0 || cfg.RecoveryPeriod != 0:
		return p, errors.New(sp.Pkg + ": recovery budget/period pace the incremental scheme, which only the simulator implements")
	case len(cfg.Replication) > 0:
		return p, fmt.Errorf("%s: §5.3 task replication is not implemented on the %s backend", sp.Pkg, sp.Name)
	case cfg.DisableCheckpoints:
		return p, fmt.Errorf("%s: checkpoints cannot be disabled on the %s backend (parents always retain child packets)", sp.Pkg, sp.Name)
	case cfg.Raw != nil:
		return p, fmt.Errorf("%s: Config.Raw holds simulator machine knobs; the %s backend takes none of them", sp.Pkg, sp.Name)
	}
	p.timescale = sp.Timescale
	if p.timescale <= 0 {
		p.timescale = DefaultTimescale
	}
	p.deadline = sp.Deadline
	if p.deadline <= 0 {
		p.deadline = DefaultDeadline
	}
	if cfg.Deadline > 0 {
		p.deadline = time.Duration(cfg.Deadline) * p.timescale
	}
	return p, nil
}

// Open implements core.SessionBackend.Open: bring the node network up and
// keep it serving until Close.
func (sp Spec) Open(cfg core.Config) (core.Session, error) {
	p, err := sp.prepare(cfg)
	if err != nil {
		return nil, err
	}
	c, err := sp.Start(p.Params)
	if err != nil {
		return nil, err
	}
	s := &session{
		sp:     sp,
		p:      p,
		c:      c,
		h:      c.host(),
		start:  time.Now(),
		stop:   make(chan struct{}),
		killed: map[proto.ProcID]bool{},
	}
	s.h.SetRequestDoneHook(s.onRequestDone)
	return s, nil
}

// Run implements core.Backend.Run as the degenerate service stream: Open
// the network, Submit the one root, Inject the plan, wait (bounded) for the
// answer, and Close. Makespan is submission-to-answer wall µs; counters and
// per-node reissue stats are the stream totals.
func (sp Spec) Run(cfg core.Config, w core.Workload, plan *faults.Plan) (*core.Report, error) {
	if w.Program == nil {
		return nil, errors.New(sp.Pkg + ": program required")
	}
	sess, err := sp.Open(cfg)
	if err != nil {
		return nil, err
	}
	req, err := sess.Submit(w)
	if err == nil {
		_, err = sess.Inject(plan)
	}
	var rep0 *core.Report
	if err == nil {
		rep0, err = req.Wait()
	}
	totals, cerr := sess.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	totals.Answer = rep0.Answer
	totals.Completed = rep0.Completed
	totals.Makespan = rep0.Makespan
	return totals, nil
}

// session is one open wall-clock service stream.
type session struct {
	sp    Spec
	p     params
	c     Cluster
	h     *Host
	start time.Time

	mu       sync.Mutex
	stop     chan struct{}
	wg       sync.WaitGroup
	killed   map[proto.ProcID]bool
	closed   bool
	closeRep *core.Report

	// Bounded-admission state, guarded by mu. A slot is taken at admission
	// (the Host.Submit) and freed at the request's first root delivery —
	// symmetric with the simulator's accounting, so the backends make
	// identical admit/shed decisions on the same stream order.
	inflight int
	queue    []*request
	queueMax int
}

// Unit implements core.Session.
func (s *session) Unit() core.TimeUnit { return core.WallMicros }

// Submit implements core.Session: the request is offered immediately —
// real time is the stream's arrival discipline — and admission control
// decides at the offer, in Submit order: a free slot (or an unbounded
// stream) admits to the node network now; a full cluster sheds or queues
// per the policy. The mutex is held across the closed check and the host
// submit so a concurrent Close can never shut the network down between the
// two (a spawn into a shut-down cluster would silently never complete).
func (s *session) Submit(w core.Workload) (core.SessionRequest, error) {
	if w.Program == nil {
		return nil, errors.New(s.sp.Pkg + ": program required")
	}
	if _, ok := w.Program.Func(w.Fn); !ok {
		// Validated at the offer so a queued request cannot fail admission
		// later, long after the submitter's error path has gone.
		return nil, fmt.Errorf("%s: unknown function %q", s.sp.Pkg, w.Fn)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New(s.sp.Pkg + ": session closed")
	}
	now := time.Now()
	if s.p.maxInFlight > 0 && s.inflight >= s.p.maxInFlight {
		if s.p.shedPolicy || (s.p.queueBound > 0 && len(s.queue) >= s.p.queueBound) {
			return &request{s: s, shed: true, offered: now}, nil
		}
		q := &request{s: s, w: w, offered: now, admitCh: make(chan struct{})}
		s.queue = append(s.queue, q)
		s.queueMax = max(s.queueMax, len(s.queue))
		return q, nil
	}
	r, err := s.h.Submit(w.Program, w.Fn, w.Args)
	if err != nil {
		return nil, err
	}
	s.inflight++
	return &request{s: s, r: r, offered: now, arrived: now}, nil
}

// onRequestDone frees the completed request's admission slot and installs
// the queue head, if any. It runs outside the host's request lock (the hook
// contract), so taking mu and re-entering Host.Submit is safe.
func (s *session) onRequestDone() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if s.closed || len(s.queue) == 0 ||
		(s.p.maxInFlight > 0 && s.inflight >= s.p.maxInFlight) {
		return
	}
	q := s.queue[0]
	s.queue = s.queue[1:]
	// Stamped before Submit: the answer, and with it doneAt, may arrive
	// before Submit returns.
	q.arrived = time.Now()
	r, err := s.h.Submit(q.w.Program, q.w.Fn, q.w.Args)
	if err == nil {
		s.inflight++
	}
	q.r, q.admitErr = r, err
	close(q.admitCh)
}

// Inject implements core.Session: validate the plan (no value corruption,
// plus a cumulative at-least-one-survivor check across every injected plan)
// and replay it on the wall clock from the stream's start. Returned stamps
// are the planned wall offsets in µs; faults whose offset already passed
// fire immediately.
func (s *session) Inject(plan *faults.Plan) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New(s.sp.Pkg + ": session closed")
	}
	if plan == nil {
		plan = faults.None()
	}
	if err := plan.Validate(s.p.Procs); err != nil {
		return nil, err
	}
	for _, f := range plan.Faults {
		if f.Kind == faults.Corrupt {
			return nil, fmt.Errorf("%s: fault %v: value corruption needs §5.3 voting, which only the simulator implements", s.sp.Pkg, f)
		}
	}
	union := map[proto.ProcID]bool{}
	for q := range s.killed {
		union[q] = true
	}
	for _, q := range plan.Procs() {
		union[q] = true
	}
	if len(union) >= s.p.Procs {
		return nil, fmt.Errorf("%s: plan kills %d of %d nodes; at least one must survive", s.sp.Pkg, len(union), s.p.Procs)
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
	go func() {
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
	}()
	return stamps, nil
}

// Close implements core.Session: stop the fault schedulers, shut the node
// network down, and report the stream totals. The mutex is released before
// Shutdown — nodes finishing their last deliveries fire the admission hook,
// which takes the mutex; holding it across the shutdown barrier would
// deadlock the teardown.
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
	if s.sp.StatsAfterShutdown {
		s.c.Shutdown()
	}
	spawned, reissued, drained := s.c.Stats()
	rep := s.baseReport()
	rep.Makespan = time.Since(s.start).Microseconds()
	rep.Messages = s.h.Msgs.Load()
	rep.MsgBytes = s.h.MsgBytes.Load()
	rep.Spawned, rep.Reissued, rep.Drained, rep.Recoveries = spawned, reissued, drained, reissued
	rep.QueueDepthMax = queueMax
	rep.ReissuesByNode = s.c.ReissuesByNode()
	if !s.sp.StatsAfterShutdown {
		s.c.Shutdown()
	}
	s.mu.Lock()
	s.closeRep = rep
	s.mu.Unlock()
	return rep, nil
}

// baseReport is the report skeleton every request and the close share.
func (s *session) baseReport() *core.Report {
	return &core.Report{
		Backend:   s.sp.Name,
		Unit:      core.WallMicros,
		Procs:     s.p.Procs,
		Scheme:    s.p.scheme,
		Placement: "random",
	}
}

// request implements core.SessionRequest. The offer stamp is set at
// Submit; a request the admission queue held gets its r and arrived fields
// when onRequestDone installs it (the admitCh close publishes them), a shed
// request never gets either.
type request struct {
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

// Wait implements core.SessionRequest: block for the answer up to the
// per-request deadline, counted from the request's admission (the
// documented Config.Deadline contract — so draining a wedged stream of N
// requests costs one budget, not N; a queued request's budget starts when
// it gets its slot, and its wait for that slot is bounded by the budget
// from its offer). An answer already delivered is accepted even after the
// budget or the session's Close; otherwise a closed session answers at
// once. A timeout is not an error — the report says Completed false and the
// stream keeps serving. A shed request reports immediately with the typed
// core.ErrShed.
func (q *request) Wait() (*core.Report, error) {
	q.once.Do(func() {
		s := q.s
		rep := s.baseReport()
		rep.Request = -1 // until admitted, no stream index exists
		rep.ArrivedAt = q.offered.Sub(s.start).Microseconds()
		if q.shed {
			rep.Shed = true
			q.rep, q.err = rep, core.ErrShed
			return
		}
		if q.admitCh != nil {
			select {
			case <-q.admitCh:
				if q.admitErr != nil {
					q.err = q.admitErr
					return
				}
			case <-time.After(max(s.p.deadline-time.Since(q.offered), 0)):
				// Still queued at the budget: a timeout, like any admitted
				// request that never answered.
				rep.Makespan = time.Since(s.start).Microseconds() - rep.ArrivedAt
				q.rep = rep
				return
			case <-s.stop:
				rep.Makespan = time.Since(s.start).Microseconds() - rep.ArrivedAt
				q.rep = rep
				return
			}
		}
		var v expr.Value
		var waitErr error
		if remaining := s.p.deadline - time.Since(q.arrived); remaining > 0 {
			v, waitErr = s.h.WaitRequest(q.r, remaining)
		} else {
			select {
			case v = <-q.r.resultCh:
			default:
				waitErr = errors.New(s.sp.Pkg + ": request budget already spent")
			}
		}
		rep.Request = q.r.ID()
		rep.ArrivedAt = q.arrived.Sub(s.start).Microseconds()
		rep.QueuedFor = q.arrived.Sub(q.offered).Microseconds()
		if waitErr == nil {
			rep.Completed = true
			rep.Answer = v
			// Stamped at delivery, not here: the caller may look late.
			rep.DoneAt = q.r.doneAt.Sub(s.start).Microseconds()
			rep.Makespan = rep.DoneAt - rep.ArrivedAt
		} else {
			rep.Makespan = time.Since(s.start).Microseconds() - rep.ArrivedAt
		}
		q.rep = rep
	})
	return q.rep, q.err
}
