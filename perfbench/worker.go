package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/proto"
	"repro/internal/topology"
	"repro/internal/workload"
)

// A worker runs one workload once, in a process of its own, so every
// process-wide cache (RNG streams, compile memo, reference answers,
// topology tables) starts cold, as it does for a user's invocation. It
// prints readyLine the moment the system accepts its first request, then
// one JSON sample as its last line.

const readyLine = "ready"

// sample is what one worker run reports to the orchestrator.
type sample struct {
	Attempted int `json:"attempted"`
	// Failed counts failed requests (wrong answer, timeout, shed, error),
	// Wrong the wrong answers among them; Failures notes the first few.
	Failed   int      `json:"failed"`
	Wrong    int      `json:"wrong"`
	Failures []string `json:"failures,omitempty"`
	// Problems are failed checks of the run itself (no recovery, stray
	// node processes): each one makes the run incorrect.
	Problems []string `json:"problems,omitempty"`

	// WallS is host seconds from ready to the end of the fixed work.
	WallS float64 `json:"wall_s"`
	// SelfCPU and ChildCPU are getrusage(RUSAGE_SELF) and
	// getrusage(RUSAGE_CHILDREN) user+system seconds at the end of the run.
	SelfCPU   float64 `json:"self_cpu_s"`
	ChildCPU  float64 `json:"child_cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// LatMs is per-request host latency from due to answer observed;
	// LateMs is how late the generator sent each request (paced streams).
	LatMs  []float64 `json:"lat_ms"`
	LateMs []float64 `json:"late_ms,omitempty"`
	// Good counts the verified answers within the workload's latency limit
	// (every verified answer on the simulator), over StreamS seconds.
	Good    int     `json:"good"`
	StreamS float64 `json:"stream_s"`

	// Counters are the layer counters the public reports return; on the
	// simulator they are a pure function of the seed (Virtual marks them).
	Counters map[string]float64 `json:"counters"`
	Virtual  bool               `json:"virtual"`
	// Runtime holds runtime/metrics readings; Layers the traced-only
	// profile attribution.
	Runtime map[string]float64 `json:"runtime"`
	Layers  map[string]float64 `json:"layers,omitempty"`
}

func (s *sample) problem(format string, args ...any) {
	s.Problems = append(s.Problems, fmt.Sprintf(format, args...))
}

// fail counts one failed request; wrong marks a wrong answer.
func (s *sample) fail(wrong bool, format string, args ...any) {
	s.Failed++
	if wrong {
		s.Wrong++
	}
	if len(s.Failures) < 10 {
		s.Failures = append(s.Failures, fmt.Sprintf(format, args...))
	}
}

// workloadSpec is one benchmark workload: run drives it once and fills the
// sample; specs lists the distinct request specs it submits (for the
// traced compile timing). README.md says why each workload is there.
type workloadSpec struct {
	name  string
	run   func(seed int64, ready func(), s *sample) error
	specs []string
}

var workloads = []workloadSpec{
	{
		name:  "sim-stream",
		run:   runSimStream,
		specs: simStreamMix,
	},
	{
		name:  "sim-sweep",
		run:   runSimSweep,
		specs: sweepPrograms,
	},
	{
		name:  "live-stream",
		run:   func(seed int64, ready func(), s *sample) error { return runPaced(liveParams, seed, ready, s) },
		specs: liveMix,
	},
	{
		name:  "net-stream",
		run:   func(seed int64, ready func(), s *sample) error { return runPaced(netParams, seed, ready, s) },
		specs: liveMix,
	},
}

func workloadByName(name string) (*workloadSpec, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// seeds derives every input of a run from the benchmark seed alone.
type seeds struct{ r *rand.Rand }

func newSeeds(seed int64) seeds { return seeds{rand.New(rand.NewSource(seed))} }

func (s seeds) next() int64 { return s.r.Int63n(1<<40) + 1 }

// workloadCache builds each distinct spec once, the way a client reuses a
// program it submits repeatedly; label keeps the simulator's canonical
// admission order equal to the generated order (Workload.Spec is the sort
// key of a batch).
type workloadCache map[string]core.Workload

func (c workloadCache) get(spec string, label int) (core.Workload, error) {
	w, ok := c[spec]
	if !ok {
		var err error
		if w, err = core.StandardWorkload(spec); err != nil {
			return w, err
		}
		c[spec] = w
	}
	w.Spec = fmt.Sprintf("%06d %s", label, spec)
	return w, nil
}

// balancedMix deals n requests over specs in equal shares and shuffles them
// with the seed, so every seed offers the same amount of work.
func balancedMix(specs []string, n int, seed int64) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = specs[i%len(specs)]
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ---- sim-stream ----

// simStreamMix is the fine-grained request mix.
var simStreamMix = []string{"fib:11", "fib:12", "fib:13", "tree:2,4", "tak:8,4,2", "msort:24"}

const (
	simStreamProcs    = 64
	simStreamRequests = 300
	// simStreamRate is below the ~0.007 req/vtick knee of this mix on a
	// 64-proc torus.
	simStreamRate = 0.005
)

func runSimStream(seed int64, ready func(), s *sample) error {
	sd := newSeeds(seed)
	cfgSeed, mixSeed, faultSeed := sd.next(), sd.next(), sd.next()
	cfg := core.Config{
		Procs: simStreamProcs, Topology: "torus", Recovery: "rollback", Seed: cfgSeed,
		MaxInFlight: 16, Admission: "queue",
		Arrival: fmt.Sprintf("arrive:poisson:%g", simStreamRate),
	}
	topo, err := topology.ByName("torus", simStreamProcs)
	if err != nil {
		return err
	}
	// Faults at fixed shares of the nominal stream length N/rate: a burst of
	// three, a full one-wave cascade (a node and its four torus neighbours),
	// and a burst of two. The seed picks the victims, never their number.
	// No fault lands near the middle of the stream, where the median answer
	// is observed, so lat_p50_ms does not depend on which side of a
	// recovery the median request falls.
	span := float64(simStreamRequests) / simStreamRate
	at := func(share float64) int64 { return int64(share * span) }
	fr := rand.New(rand.NewSource(faultSeed))
	plan := faults.Burst(simStreamProcs, 3, at(0.15), faults.CrashAnnounced, fr.Int63()).
		Merge(faults.Cascade(topo, proto.ProcID(fr.Intn(simStreamProcs)), at(0.3), 150, 1, 1,
			faults.CrashAnnounced, fr.Int63())).
		Merge(faults.Burst(simStreamProcs, 2, at(0.75), faults.CrashAnnounced, fr.Int63()))

	cache := workloadCache{}
	ws := make([]core.Workload, simStreamRequests)
	for i, spec := range balancedMix(simStreamMix, simStreamRequests, mixSeed) {
		if ws[i], err = cache.get(spec, i); err != nil {
			return err
		}
	}

	cl, err := labelled("open", func() (*core.Cluster, error) { return core.Open(cfg) })
	if err != nil {
		return err
	}
	ready()
	start := time.Now()
	if err := cl.Inject(plan); err != nil {
		_, _ = cl.Close()
		return err
	}
	tickets := make([]*core.Ticket, len(ws))
	labelledDo("submit", func() {
		for i, w := range ws {
			tickets[i] = cl.Submit(w)
		}
	})
	var mu sync.Mutex
	labelledDo("wait", func() {
		for _, t := range tickets {
			verifyTicket(t, s, &mu)
		}
	})
	sr, err := labelled("close", cl.Close)
	if err != nil {
		return err
	}
	s.WallS = time.Since(start).Seconds()
	s.StreamS = s.WallS
	s.Attempted = len(ws)
	s.Good = s.Attempted - s.Failed

	var vlat []float64
	for _, rep := range sr.PerRequest {
		if rep.Completed && rep.Err == nil {
			vlat = append(vlat, float64(rep.Makespan+rep.QueuedFor))
		}
	}
	s.Virtual = true
	s.Counters = simCounters(sr.Totals, len(ws))
	s.Counters["vlat_p50_ticks"] = quantile(vlat, 0.50)
	s.Counters["vlat_p99_ticks"] = quantile(vlat, 0.99)
	s.Counters["admit.queue_wait_p99"] = float64(sr.QueueWaitP99)
	s.Counters["admit.queue_depth_max"] = float64(sr.QueueDepthMax)
	if s.Counters["recover.reissues"]+s.Counters["recover.twins"] == 0 {
		s.problem("faulted stream shows no recovery (no reissues, no twins)")
	}
	return nil
}

// simCounters extracts the per-layer counters of a simulator report.
func simCounters(rep *core.Report, requests int) map[string]float64 {
	c := map[string]float64{}
	if rep == nil || rep.Sim == nil {
		return c
	}
	addSimCounters(c, rep)
	finishSimCounters(c, requests)
	return c
}

func addSimCounters(c map[string]float64, rep *core.Report) {
	m := &rep.Sim.Metrics
	for name, v := range map[string]int64{
		"sim.events":         int64(rep.Sim.Events),
		"msg.task":           m.MsgTask,
		"msg.task-ack":       m.MsgTaskAck,
		"msg.result":         m.MsgResult,
		"msg.result-ack":     m.MsgResultAck,
		"msg.heartbeat":      m.MsgHeartbeat,
		"msg.abort":          m.MsgAbort,
		"msg.fault":          m.MsgFault,
		"msg.grand":          m.MsgGrand,
		"msg.total":          m.TotalMessages(),
		"tasks.spawned":      m.TasksSpawned,
		"tasks.aborted":      m.TasksAborted,
		"tasks.lost":         m.TasksLost,
		"recover.reissues":   m.Reissues,
		"recover.twins":      m.Twins,
		"recover.suppressed": m.Suppressed,
		"recover.paced":      m.PacedReissues,
		"ckpt.count":         m.Checkpoints,
		"steps.executed":     m.StepsExecuted,
		"steps.wasted":       m.StepsWasted,
		"results.drained":    m.DupResults + m.LateResults,
		"wire.bytes":         m.BytesOnWire,
	} {
		c[name] += float64(v)
	}
	c["ckpt.bytes_peak"] = max(c["ckpt.bytes_peak"], float64(m.CheckpointBytes))
}

func finishSimCounters(c map[string]float64, requests int) {
	c["msgs_per_req"] = c["msg.total"] / float64(requests)
	if c["steps.executed"] > 0 {
		c["steps.wasted_ratio"] = c["steps.wasted"] / c["steps.executed"]
	}
	if c["msg.total"] > 0 {
		c["wire.bytes_per_msg"] = c["wire.bytes"] / c["msg.total"]
	}
}

// ---- sim-sweep ----

var (
	sweepTopologies = []string{"mesh", "torus", "hypercube", "regular"}
	sweepSchemes    = []string{"rollback", "splice", "incremental"}
	sweepPrograms   = []string{"tak:10,6,3"}
	// sweepCascadeAt are the start ticks of the three one-wave cascades of
	// a faulted cell, fixed points inside the fault-free run. Victims that
	// hold no task need no recovery; three cascades make sure some victim
	// is busy.
	sweepCascadeAt = []int64{600, 900, 1200}
)

const sweepProcs = 64

func runSimSweep(seed int64, ready func(), s *sample) error {
	sd := newSeeds(seed)
	type cell struct {
		topo, scheme string
		w            core.Workload
		spec         string
		cfgSeed      int64
		plan         *core.FaultPlan
	}
	var cells []cell
	cache := workloadCache{}
	for _, topoName := range sweepTopologies {
		topo, err := topology.ByName(topoName, sweepProcs)
		if err != nil {
			return err
		}
		for _, scheme := range sweepSchemes {
			for _, spec := range sweepPrograms {
				w, err := cache.get(spec, 0)
				if err != nil {
					return err
				}
				cfgSeed, planSeed := sd.next(), sd.next()
				cells = append(cells, cell{topoName, scheme, w, spec, cfgSeed,
					sweepPlan(topo, sweepCascadeAt, planSeed)})
			}
		}
	}
	cfgOf := func(c cell) core.Config {
		return core.Config{Procs: sweepProcs, Topology: c.topo, Recovery: c.scheme, Seed: c.cfgSeed}
	}
	// Set-up ends when the first cell's machine is built.
	if _, err := labelled("build", func() (any, error) { return cfgOf(cells[0]).Build(cells[0].w.Program) }); err != nil {
		return err
	}
	ready()
	start := time.Now()
	counters := map[string]float64{}
	var faulted, clean, vlat []float64
	verify := func(c cell, plan *core.FaultPlan) *core.Report {
		s.Attempted++
		rep, err := labelled("verify", func() (*core.Report, error) { return cfgOf(c).Verify(c.w, plan) })
		label := fmt.Sprintf("%s/%s/%s faults=%v", c.topo, c.scheme, c.spec, plan != nil)
		if err != nil {
			s.fail(rep != nil && rep.Completed, "%s: %v", label, err)
			return nil
		}
		addSimCounters(counters, rep)
		vlat = append(vlat, float64(rep.Makespan))
		return rep
	}
	for _, c := range cells {
		probe := verify(c, nil)
		rep := verify(c, c.plan)
		if probe == nil || rep == nil {
			continue
		}
		clean = append(clean, float64(probe.Makespan))
		faulted = append(faulted, float64(rep.Makespan))
		if rep.Sim.Metrics.Reissues+rep.Sim.Metrics.Twins == 0 {
			s.problem("%s/%s/%s: cascade shows no recovery", c.topo, c.scheme, c.spec)
		}
	}
	s.WallS = time.Since(start).Seconds()
	s.StreamS = s.WallS
	s.Good = s.Attempted - s.Failed
	finishSimCounters(counters, s.Attempted)
	s.Virtual = true
	s.Counters = counters
	s.Counters["vlat_p50_ticks"] = quantile(vlat, 0.50)
	s.Counters["vlat_p99_ticks"] = quantile(vlat, 0.99)
	if sum(clean) > 0 {
		s.Counters["vstretch"] = sum(faulted) / sum(clean)
	}
	return nil
}

// ---- live-stream and net-stream ----

// liveMix is the light L3 request mix.
var liveMix = []string{"fib:11", "fib:12", "tree:2,4", "tak:8,4,2"}

type pacedParams struct {
	backend  string
	procs    int
	rate     float64 // requests per second
	duration time.Duration
	// kills are the stream offsets of the node kills, as shares of
	// duration; each kills one node drawn from the seed.
	kills   []float64
	limitMs float64
	// At each kill the generator first sends anchor, a coarse request, and
	// injects the kill anchorDelay later, while the anchor is still spread
	// over every node: the killed node then always holds work and recovery
	// runs on every seed, however late the generator is.
	anchor      string
	anchorDelay time.Duration
}

var (
	liveParams = pacedParams{backend: "live", procs: 4, rate: 300, duration: 2 * time.Second,
		kills: []float64{0.5}, limitMs: 50, anchor: "fib:15", anchorDelay: 2 * time.Millisecond}
	netParams = pacedParams{backend: "net", procs: 3, rate: 60, duration: 4 * time.Second,
		kills: []float64{0.5}, limitMs: 100, anchor: "fib:13", anchorDelay: 4 * time.Millisecond}
)

func runPaced(p pacedParams, seed int64, ready func(), s *sample) error {
	sd := newSeeds(seed)
	cfgSeed, schedSeed, mixSeed, faultSeed := sd.next(), sd.next(), sd.next(), sd.next()
	arr, err := workload.ParseArrival(fmt.Sprintf("arrive:poisson:%g", p.rate/1e6)) // per µs
	if err != nil {
		return err
	}
	// n Poisson arrivals conditioned to fall inside the stream: scaling the
	// first n arrival times by duration/S(n+1) leaves them distributed as a
	// Poisson process with exactly n arrivals in [0, duration), so every
	// seed offers the same number of requests over the same stream time.
	n := int(p.rate * p.duration.Seconds())
	sched := arr.Schedule(n+1, schedSeed)
	scale := float64(p.duration) / float64(sched[n])
	// A request with kill >= 0 is the anchor of that kill.
	type req struct {
		due  time.Duration
		spec string
		kill int
	}
	mix := balancedMix(liveMix, n, mixSeed)
	reqs := make([]req, 0, n+len(p.kills))
	for i, off := range sched[:n] {
		reqs = append(reqs, req{time.Duration(float64(off) * scale), mix[i], -1})
	}
	for k, share := range p.kills {
		reqs = append(reqs, req{time.Duration(share * float64(p.duration)), p.anchor, k})
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	cache := workloadCache{}
	ws := make([]core.Workload, len(reqs))
	for i, r := range reqs {
		if ws[i], err = cache.get(r.spec, i); err != nil {
			return err
		}
	}
	victims := rand.New(rand.NewSource(faultSeed)).Perm(p.procs)

	cfg := core.Config{Procs: p.procs, Recovery: "rollback", Seed: cfgSeed}
	opened := time.Now()
	cl, err := labelled("open", func() (*core.Cluster, error) { return core.OpenOn(p.backend, cfg) })
	if err != nil {
		return err
	}
	ready()
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	lat := make([]float64, len(reqs))
	s.LateMs = make([]float64, 0, len(reqs))
	for i, r := range reqs {
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		var t *core.Ticket
		labelledDo("submit", func() { t = cl.Submit(ws[i]) })
		s.LateMs = append(s.LateMs, float64(time.Since(start)-r.due)/1e6)
		if r.kill >= 0 {
			// Fault ticks count from the session clock, which starts inside
			// Open; opened is at or before it, so the kill lands no earlier
			// than anchorDelay after the anchor.
			at := time.Since(opened) + p.anchorDelay
			plan := faults.None().Add(core.Fault{At: int64(at / liveTick), Proc: proto.ProcID(victims[r.kill]), Kind: core.CrashSilent})
			if err := cl.Inject(plan); err != nil {
				_, _ = cl.Close()
				return err
			}
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			ok := verifyTicket(t, s, &mu)
			lat[i] = msSince(due)
			if !ok {
				lat[i] = -1
			}
		}(i, start.Add(r.due))
	}
	wg.Wait()
	sr, err := labelled("close", cl.Close)
	if err != nil {
		return err
	}
	s.WallS = time.Since(start).Seconds()
	s.StreamS = p.duration.Seconds()
	s.Attempted = len(reqs)
	// The anchors are verified and counted, but only the Poisson stream is
	// timed: an anchor is a benchmark device, not part of the traffic.
	for i, l := range lat {
		if l >= 0 && reqs[i].kill < 0 {
			s.LatMs = append(s.LatMs, l)
			if l <= p.limitMs {
				s.Good++
			}
		}
	}
	s.Counters = map[string]float64{
		"tasks.spawned":         float64(sr.Spawned),
		"recover.reissues":      float64(sr.Reissued),
		"results.drained":       float64(sr.Drained),
		"msg.total":             float64(sr.Messages),
		"msgs_per_req":          float64(sr.Messages) / float64(len(reqs)),
		"wire.bytes":            float64(sr.MsgBytes),
		"admit.queue_depth_max": float64(sr.QueueDepthMax),
	}
	if sr.Messages > 0 {
		s.Counters["wire.bytes_per_msg"] = float64(sr.MsgBytes) / float64(sr.Messages)
	}
	if sr.Reissued == 0 {
		s.problem("%d mid-stream kill(s) but nothing was reissued", len(p.kills))
	}
	if p.backend == "net" {
		if left := strayNodes(); len(left) > 0 {
			s.problem("node processes survived Close: %v", left)
		}
	}
	return nil
}

// liveTick is the wall duration of one fault-plan tick on the live and net
// backends (their shared default timescale).
const liveTick = 2 * time.Microsecond

// verifyTicket waits for one request and checks its answer against the
// reference evaluator; any failure is counted, never dropped.
func verifyTicket(t *core.Ticket, s *sample, mu *sync.Mutex) bool {
	rep, err := t.Verify()
	if err == nil {
		return true
	}
	mu.Lock()
	defer mu.Unlock()
	s.fail(rep != nil && rep.Completed, "%s: %v", t.Workload().Spec, err)
	return false
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// sweepPlan builds one one-wave full cascade (a node and all its
// neighbours) per start tick, each from a seeded origin. An origin whose
// cascade would cut the surviving processors apart is skipped for the next
// one: a partitioned interconnect is not a survivable fault, and no scheme
// can finish across it.
func sweepPlan(topo topology.Topology, at []int64, seed int64) *core.FaultPlan {
	r := rand.New(rand.NewSource(seed))
	plan := faults.None()
	for _, t := range at {
		origin := r.Intn(topo.Size())
		for tries := 0; ; tries++ {
			next := faults.None().Merge(plan).Merge(faults.Cascade(topo, proto.ProcID(origin), t, 60, 1, 1,
				faults.CrashAnnounced, seed))
			if survivorsConnected(topo, next) || tries == topo.Size() {
				plan = next
				break
			}
			origin = (origin + 1) % topo.Size()
		}
	}
	return plan
}

// survivorsConnected reports whether the processors the plan leaves alive
// still form one connected interconnect.
func survivorsConnected(topo topology.Topology, plan *core.FaultPlan) bool {
	dead := make([]bool, topo.Size())
	for _, p := range plan.Procs() {
		dead[p] = true
	}
	start := -1
	alive := 0
	for v, d := range dead {
		if !d {
			alive++
			if start < 0 {
				start = v
			}
		}
	}
	if alive == 0 {
		return false
	}
	seen := make([]bool, topo.Size())
	seen[start] = true
	queue := []topology.NodeID{topology.NodeID(start)}
	reached := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range topo.Neighbors(u) {
			if !dead[v] && !seen[v] {
				seen[v] = true
				reached++
				queue = append(queue, v)
			}
		}
	}
	return reached == alive
}
