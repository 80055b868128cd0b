package netnode

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

// This file adapts the process-per-node cluster to core.Backend as the
// third registered substrate, "net". The contract is livenet's, one level
// further from the simulator: real OS processes instead of goroutines, real
// sockets instead of channels, SIGKILL instead of cooperative teardown —
// and the same Config/Workload/fault-plan vocabulary, the same admission
// policies, and the same ServiceReport fields, so every artifact driver
// runs unchanged and core.VerifyOn("net", …) asserts the §2.1 determinacy
// guarantee across the process boundary.

// DefaultTimescale maps fault-plan virtual ticks to wall time, matching
// livenet so Burst/Cascade plans keep their shape across the two wall-clock
// backends.
const DefaultTimescale = 2 * time.Microsecond

// DefaultDeadline bounds Wait when the config sets no virtual-time budget.
// Process spawn and socket hops make the net backend slower than the
// goroutine network; the default stays generous rather than clever.
const DefaultDeadline = 30 * time.Second

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

// netParams is the validated shape of a core.Config on the net backend.
type netParams struct {
	procs       int
	seed        int64
	scheme      string
	eval        string
	timescale   time.Duration
	deadline    time.Duration
	maxInFlight int
	shedPolicy  bool
	queueBound  int
}

// prepare validates the config — the same capability surface as livenet
// (rollback or none, random placement, no sim-only knobs), shared by the
// one-shot and session paths.
func (b *Backend) prepare(cfg core.Config) (netParams, error) {
	p := netParams{procs: cfg.Procs, seed: cfg.Seed, scheme: cfg.Recovery}
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
		return p, fmt.Errorf("netnode: recovery %q not supported on the net backend (rollback per-parent reissue, or none)", cfg.Recovery)
	}
	p.eval = cfg.Eval
	if p.eval == "" {
		p.eval = core.DefaultEval
	}
	if !lang.KnownEvaluator(p.eval) {
		return p, registry.Unknown("netnode", "evaluator", p.eval, lang.Evaluators())
	}
	if cfg.Placement != "" && cfg.Placement != "random" {
		return p, fmt.Errorf("netnode: placement %q not supported on the net backend (random only)", cfg.Placement)
	}
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
		return p, fmt.Errorf("netnode: unknown admission policy %q (queue, queue:N, shed)", cfg.Admission)
	}
	switch {
	case cfg.RecoveryBudget != 0 || cfg.RecoveryPeriod != 0:
		return p, errors.New("netnode: recovery budget/period pace the incremental scheme, which only the simulator implements")
	case len(cfg.Replication) > 0:
		return p, errors.New("netnode: §5.3 task replication is not implemented on the net backend")
	case cfg.DisableCheckpoints:
		return p, errors.New("netnode: checkpoints cannot be disabled on the net backend (parents always retain child packets)")
	case cfg.Raw != nil:
		return p, errors.New("netnode: Config.Raw holds simulator machine knobs; the net backend takes none of them")
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

// Run implements core.Backend as the degenerate service stream, exactly
// like the other two backends.
func (b *Backend) Run(cfg core.Config, w core.Workload, plan *faults.Plan) (*core.Report, error) {
	if w.Program == nil {
		return nil, errors.New("netnode: program required")
	}
	sess, err := b.Open(cfg)
	if err != nil {
		return nil, err
	}
	req, err := sess.Submit(w)
	if err != nil {
		_, _ = sess.Close()
		return nil, err
	}
	if _, err := sess.Inject(plan); err != nil {
		_, _ = sess.Close()
		return nil, err
	}
	rep0, err := req.Wait()
	if err != nil {
		_, _ = sess.Close()
		return nil, err
	}
	totals, err := sess.Close()
	if err != nil {
		return nil, err
	}
	totals.Answer = rep0.Answer
	totals.Completed = rep0.Completed
	totals.Makespan = rep0.Makespan
	return totals, nil
}

// Open implements core.SessionBackend: fork the node processes and keep the
// cluster serving until Close.
func (b *Backend) Open(cfg core.Config) (core.Session, error) {
	p, err := b.prepare(cfg)
	if err != nil {
		return nil, err
	}
	c, err := New(p.procs, p.seed, Options{TCP: b.TCP, NoRecovery: p.scheme == "none", Eval: p.eval})
	if err != nil {
		return nil, err
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

// session is one open net service stream — the admission, fault-replay and
// reporting logic is livenet's, against the process cluster.
type session struct {
	p     netParams
	c     *Cluster
	start time.Time

	mu       sync.Mutex
	stop     chan struct{}
	wg       sync.WaitGroup
	killed   map[proto.ProcID]bool
	closed   bool
	closeRep *core.Report

	inflight int
	queue    []*netRequest
	queueMax int
	shed     int
}

// Unit implements core.Session.
func (s *session) Unit() core.TimeUnit { return core.WallMicros }

// Submit implements core.Session: admission control decides at the offer,
// in Submit order, with the queue/queue:N/shed vocabulary shared across
// backends.
func (s *session) Submit(w core.Workload) (core.SessionRequest, error) {
	if w.Program == nil {
		return nil, errors.New("netnode: program required")
	}
	if _, ok := w.Program.Func(w.Fn); !ok {
		return nil, fmt.Errorf("netnode: unknown function %q", w.Fn)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("netnode: session closed")
	}
	now := time.Now()
	if s.p.maxInFlight > 0 && s.inflight >= s.p.maxInFlight {
		if s.p.shedPolicy || (s.p.queueBound > 0 && len(s.queue) >= s.p.queueBound) {
			s.shed++
			return &netRequest{s: s, shed: true, offered: now}, nil
		}
		nr := &netRequest{s: s, w: w, offered: now, admitCh: make(chan struct{})}
		s.queue = append(s.queue, nr)
		if len(s.queue) > s.queueMax {
			s.queueMax = len(s.queue)
		}
		return nr, nil
	}
	r, err := s.c.Submit(w.Program, w.Fn, w.Args)
	if err != nil {
		return nil, err
	}
	s.inflight++
	return &netRequest{s: s, r: r, offered: now, arrived: now}, nil
}

// onRequestDone frees the completed request's admission slot and installs
// the queue head, if any.
func (s *session) onRequestDone() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if s.closed || len(s.queue) == 0 ||
		(s.p.maxInFlight > 0 && s.inflight >= s.p.maxInFlight) {
		return
	}
	nr := s.queue[0]
	s.queue = s.queue[1:]
	// Stamped before Submit: the answer, and with it doneAt, may arrive
	// before Submit returns.
	nr.arrived = time.Now()
	r, err := s.c.Submit(nr.w.Program, nr.w.Fn, nr.w.Args)
	if err == nil {
		s.inflight++
	}
	nr.r, nr.admitErr = r, err
	close(nr.admitCh)
}

// Inject implements core.Session: validate the plan and replay it on the
// wall clock from the stream's start — each fault a SIGKILL of the target
// node's PID.
func (s *session) Inject(plan *faults.Plan) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("netnode: session closed")
	}
	if plan == nil {
		plan = faults.None()
	}
	if err := plan.Validate(s.p.procs); err != nil {
		return nil, err
	}
	for _, f := range plan.Faults {
		if f.Kind == faults.Corrupt {
			return nil, fmt.Errorf("netnode: fault %v: value corruption needs §5.3 voting, which only the simulator implements", f)
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
		return nil, fmt.Errorf("netnode: plan kills %d of %d nodes; at least one must survive", len(union), s.p.procs)
	}
	s.killed = union
	sorted := plan.Sorted()
	stamps := make([]int64, 0, len(sorted))
	for _, f := range sorted {
		stamps = append(stamps, int64(time.Duration(f.At)*s.p.timescale/time.Microsecond))
	}
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

// Close implements core.Session: stop the fault schedulers, tear every node
// process down (graceful drain, then SIGKILL stragglers), and report the
// stream totals.
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
	s.c.Shutdown()
	spawned, reissued, drained := s.c.Stats()
	rep := &core.Report{
		Backend:        "net",
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
	s.mu.Lock()
	s.closeRep = rep
	s.mu.Unlock()
	return rep, nil
}

// netRequest implements core.SessionRequest, with livenet's offer/admit/
// budget semantics.
type netRequest struct {
	s       *session
	r       *Request
	w       core.Workload
	offered time.Time
	arrived time.Time

	shed     bool
	admitCh  chan struct{}
	admitErr error

	once sync.Once
	rep  *core.Report
	err  error
}

func (nr *netRequest) baseReport() *core.Report {
	s := nr.s
	return &core.Report{
		Backend:   "net",
		Unit:      core.WallMicros,
		Procs:     s.p.procs,
		Scheme:    s.p.scheme,
		Placement: "random",
	}
}

// Wait implements core.SessionRequest: block for the answer up to the
// per-request deadline counted from admission; a timeout is not an error.
func (nr *netRequest) Wait() (*core.Report, error) {
	nr.once.Do(func() {
		s := nr.s
		if nr.shed {
			rep := nr.baseReport()
			rep.Request = -1
			rep.Shed = true
			rep.ArrivedAt = nr.offered.Sub(s.start).Microseconds()
			nr.rep, nr.err = rep, core.ErrShed
			return
		}
		if nr.admitCh != nil {
			admitBudget := s.p.deadline - time.Since(nr.offered)
			if admitBudget < 0 {
				admitBudget = 0
			}
			select {
			case <-nr.admitCh:
				if nr.admitErr != nil {
					nr.err = nr.admitErr
					return
				}
			case <-time.After(admitBudget):
				rep := nr.baseReport()
				rep.Request = -1
				rep.ArrivedAt = nr.offered.Sub(s.start).Microseconds()
				rep.Makespan = time.Since(s.start).Microseconds() - rep.ArrivedAt
				nr.rep = rep
				return
			case <-s.stop:
				rep := nr.baseReport()
				rep.Request = -1
				rep.ArrivedAt = nr.offered.Sub(s.start).Microseconds()
				rep.Makespan = time.Since(s.start).Microseconds() - rep.ArrivedAt
				nr.rep = rep
				return
			}
		}
		var v expr.Value
		var waitErr error
		if remaining := s.p.deadline - time.Since(nr.arrived); remaining > 0 {
			v, waitErr = s.c.WaitRequest(nr.r, remaining)
		} else {
			select {
			case v = <-nr.r.resultCh:
			default:
				waitErr = errors.New("netnode: request budget already spent")
			}
		}
		rep := nr.baseReport()
		rep.Request = nr.r.ID()
		rep.ArrivedAt = nr.arrived.Sub(s.start).Microseconds()
		rep.QueuedFor = nr.arrived.Sub(nr.offered).Microseconds()
		if waitErr == nil {
			rep.Completed = true
			rep.Answer = v
			// Stamped at delivery, not here: the caller may look late.
			rep.DoneAt = nr.r.doneAt.Sub(s.start).Microseconds()
			rep.Makespan = rep.DoneAt - rep.ArrivedAt
		} else {
			rep.Makespan = time.Since(s.start).Microseconds() - rep.ArrivedAt
		}
		nr.rep = rep
	})
	return nr.rep, nr.err
}
