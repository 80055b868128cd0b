// Command perfbench is the repository's benchmark: it runs one workload
// through the public core API for a fixed time, in fresh worker processes,
// checks every answer, and prints the end-to-end metrics (or, traced, the
// per-layer metrics) with a JSON result as its last line. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	_ "repro/internal/livenet" // registers the "live" backend
	"repro/internal/netnode"
)

// buildDir holds everything a run leaves behind, relative to the checkout.
const buildDir = ".bench_build"

const (
	minReps    = 3
	maxReps    = 60
	repTimeout = 50 * time.Second // three hung workers still end within 180 s
)

func main() {
	// A re-exec'd net node never returns from here.
	netnode.ChildMain()

	wl := flag.String("workload", "", "workload name, or \"all\" for every workload")
	seed := flag.Int64("seed", 1, "benchmark seed: every input derives from it")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	worker := flag.Bool("worker", false, "run the workload once in this process (internal)")
	flag.Parse()

	if *worker {
		if err := workerMain(*wl, *seed, *traced == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if *wl == "all" {
		if err := runAll(*seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := orchestrate(w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	list := endToEnd
	if *traced == 1 {
		list = perLayer
	}
	printResult(os.Stdout, w.name, res, list)
}

// workerMain runs the workload once and prints the sample.
func workerMain(name string, seed int64, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var tr *tracer
	if traced {
		if tr, err = startTrace(); err != nil {
			return err
		}
	}
	s := &sample{}
	ready := func() { fmt.Println(readyLine) }
	if err := w.run(seed, ready, s); err != nil {
		return err
	}
	s.SelfCPU, s.ChildCPU, s.PeakRSSMB = rusage()
	s.Runtime = runtimeMetrics()
	if tr != nil {
		dir := filepath.Join(buildDir, "profiles")
		if s.Layers, err = tr.finish(dir, fmt.Sprintf("%s-seed%d", name, seed), w.specs); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}

// rep is one worker run as the orchestrator saw it.
type rep struct {
	sample
	setupS float64
	traced bool
}

// spawn runs one worker process to completion.
func spawn(name string, seed int64, traced bool) (*rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-worker", "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-trace", tr)
	// Relative, so the net backend's unix socket paths stay short.
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	timer := time.AfterFunc(repTimeout, func() { _ = cmd.Process.Kill() })
	defer timer.Stop()
	r := &rep{traced: traced, setupS: -1}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if line == readyLine && r.setupS < 0 {
			r.setupS = time.Since(t0).Seconds()
			continue
		}
		last = line
	}
	werr := cmd.Wait()
	if werr != nil {
		return nil, fmt.Errorf("worker %s seed %d: %w", name, seed, werr)
	}
	if r.setupS < 0 {
		return nil, fmt.Errorf("worker %s seed %d never became ready", name, seed)
	}
	if err := json.Unmarshal([]byte(last), &r.sample); err != nil {
		return nil, fmt.Errorf("worker %s seed %d: bad sample: %w", name, seed, err)
	}
	return r, nil
}

// result is one run's aggregate: the metrics by name, with units and
// sample counts.
type result struct {
	correct           bool
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

type metric struct {
	unit  string
	value float64
	n     int
}

// orchestrate runs fresh worker processes for about seconds: untraced
// ones for the end-to-end metrics, or, traced, one profiled worker first
// and untraced ones after it for the counters and the tracing overhead.
func orchestrate(w *workloadSpec, seed int64, seconds float64, traced bool) (*result, error) {
	start := time.Now()
	var reps []*rep
	var last time.Duration
	need := minReps
	if traced {
		need = 2
	}
	for len(reps) < maxReps {
		elapsed := time.Since(start)
		if len(reps) >= need && elapsed+last > time.Duration(seconds*float64(time.Second)) {
			break
		}
		t0 := time.Now()
		r, err := spawn(w.name, seed, traced && len(reps) == 0)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		reps = append(reps, r)
	}
	return aggregate(reps), nil
}

// aggregate folds the worker runs into every metric the benchmark knows.
// Values are medians over the untraced workers; latency percentiles are
// taken per worker, at the highest percentile up to 99 with ten samples
// beyond it, and their median is reported, so one disturbed worker cannot
// move them.
func aggregate(reps []*rep) *result {
	res := &result{correct: true, metrics: map[string]metric{}}
	var plain []*rep
	var tracedRep *rep
	for _, r := range reps {
		res.attempted += r.Attempted
		res.failed += r.Failed
		res.problems = append(res.problems, r.Failures...)
		res.problems = append(res.problems, r.Problems...)
		if r.Wrong > 0 || len(r.Problems) > 0 {
			res.correct = false
		}
		if r.traced {
			tracedRep = r
		} else {
			plain = append(plain, r)
		}
	}
	// The simulator's counters are a pure function of the seed: every run
	// of the same seed must report them identically.
	if reps[0].Virtual {
		ref, _ := json.Marshal(reps[0].Counters)
		for _, r := range reps[1:] {
			if got, _ := json.Marshal(r.Counters); string(got) != string(ref) {
				res.correct = false
				res.problems = append(res.problems, "virtual counters differ between runs of one seed")
				break
			}
		}
	}
	med := func(f func(*rep) float64) float64 {
		var xs []float64
		for _, r := range plain {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	n := len(plain)
	var late []float64
	nLat, nGood := 0, 0
	for _, r := range plain {
		late = append(late, r.LateMs...)
		nLat += len(r.LatMs)
		nGood += r.Good
	}
	set := func(name, unit string, v float64, n int) { res.metrics[name] = metric{unit, v, n} }
	wall := med(func(r *rep) float64 { return r.WallS })
	cpu := med(func(r *rep) float64 { return r.SelfCPU + r.ChildCPU })
	set("setup_s", "s", med(func(r *rep) float64 { return r.setupS }), n)
	set("wall_s", "s", wall, n)
	set("cpu_s", "s", cpu, n)
	set("peak_rss_mb", "MB", med(func(r *rep) float64 { return r.PeakRSSMB }), n)
	set("goodput_rps", "1/s", med(func(r *rep) float64 { return float64(r.Good) / r.StreamS }), nGood)
	set("fail_ratio", "ratio", float64(res.failed)/float64(max(res.attempted, 1)), res.attempted)
	if nLat > 0 {
		set("lat_p50_ms", "ms", med(func(r *rep) float64 { return quantile(r.LatMs, 0.5) }), nLat)
		set("lat_p99_ms", "ms", med(func(r *rep) float64 { return quantile(r.LatMs, tailQuantile(len(r.LatMs))) }), nLat)
		set("gen.late_p99_ms", "ms", quantile(late, tailQuantile(len(late))), len(late))
	}
	set("net.child_cpu_s", "s", med(func(r *rep) float64 { return r.ChildCPU }), n)
	set("net.parent_cpu_s", "s", med(func(r *rep) float64 { return r.SelfCPU }), n)

	counters := map[string][]float64{}
	for _, r := range reps {
		for k, v := range r.Counters {
			counters[k] = append(counters[k], v)
		}
	}
	for k, vs := range counters {
		set(k, unitOf(k), median(vs), len(vs))
	}
	if ev := median(counters["sim.events"]); ev > 0 {
		set("sim.ns_per_event", "ns", wall*1e9/ev, n)
	}
	runtimeVals := map[string][]float64{}
	for _, r := range plain {
		for k, v := range r.Runtime {
			runtimeVals[k] = append(runtimeVals[k], v)
		}
	}
	for k, vs := range runtimeVals {
		set(k, unitOf(k), median(vs), len(vs))
	}
	if tracedRep != nil {
		for k, v := range tracedRep.Layers {
			set(k, unitOf(k), v, 1)
		}
		set("trace.overhead_wall", "ratio", tracedRep.WallS/wall-1, 1)
		set("trace.overhead_cpu", "ratio", (tracedRep.SelfCPU+tracedRep.ChildCPU)/cpu-1, 1)
	}
	return res
}

// spec is a metric's declared name and unit.
type spec struct{ name, unit string }

// endToEnd lists the untraced run's metrics, the ones BENCHMARK.json
// bounds. They are the costs and the output rate every workload has.
var endToEnd = []spec{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"}, {"goodput_rps", "1/s"},
}

// summary is what --workload all prints per workload: the end-to-end
// metrics plus the latency, virtual and failure figures that exist only on
// some workloads or are too noisy on a shared host to bound.
var summary = append(append([]spec(nil), endToEnd...),
	spec{"lat_p50_ms", "ms"}, spec{"lat_p99_ms", "ms"},
	spec{"vlat_p50_ticks", "ticks"}, spec{"vlat_p99_ticks", "ticks"}, spec{"vstretch", "ratio"},
	spec{"fail_ratio", "ratio"})

// perLayer lists the traced run's metrics in report order; README.md maps
// each to the end-to-end metric it should move. A metric a workload cannot
// produce (a simulator counter on a wall-clock backend) reads 0.
var perLayer = []spec{
	{"sim.events", "count"}, {"sim.ns_per_event", "ns"}, {"cpu.sim", "s"},
	{"cpu.rng", "s"}, {"alloc.rng_mb", "MB"}, {"alloc.rng_share", "ratio"},
	{"msg.task", "count"}, {"msg.task-ack", "count"}, {"msg.result", "count"},
	{"msg.result-ack", "count"}, {"msg.heartbeat", "count"}, {"msg.abort", "count"},
	{"msg.fault", "count"}, {"msg.grand", "count"}, {"msgs_per_req", "count"},
	{"tasks.spawned", "count"}, {"tasks.aborted", "count"}, {"tasks.lost", "count"},
	{"cpu.machine", "s"},
	{"recover.reissues", "count"}, {"recover.twins", "count"}, {"recover.suppressed", "count"},
	{"recover.paced", "count"}, {"ckpt.count", "count"}, {"ckpt.bytes_peak", "B"},
	{"steps.wasted_ratio", "ratio"}, {"results.drained", "count"},
	{"steps.executed", "count"}, {"eval.compile_us", "us"}, {"cpu.lang", "s"},
	{"wire.bytes", "B"}, {"wire.bytes_per_msg", "B"}, {"cpu.proto", "s"},
	{"cpu.livenet", "s"}, {"cpu.netnode", "s"}, {"net.child_cpu_s", "s"}, {"net.parent_cpu_s", "s"},
	{"sched.latency_p99_us", "us"},
	{"cpu.core", "s"}, {"admit.queue_wait_p99", "ticks"}, {"admit.queue_depth_max", "count"},
	{"cpu.runtime", "s"}, {"alloc.bytes", "B"}, {"alloc.objects", "count"}, {"gc.cycles", "count"},
	{"gc.cpu_share", "ratio"},
	{"cpu.other", "s"}, {"gen.late_p99_ms", "ms"},
	{"lat_p50_ms", "ms"}, {"lat_p99_ms", "ms"},
	{"vlat_p50_ticks", "ticks"}, {"vlat_p99_ticks", "ticks"}, {"vstretch", "ratio"},
	{"fail_ratio", "ratio"},
	{"trace.overhead_wall", "ratio"}, {"trace.overhead_cpu", "ratio"},
}

// unitOf looks a metric's unit up in the declared lists.
func unitOf(name string) string {
	for _, s := range perLayer {
		if s.name == name {
			return s.unit
		}
	}
	return "count"
}

// printResult prints the listed metrics with their units and sample
// counts, then the JSON result line. A listed metric the workload does not
// produce reads 0.
func printResult(f *os.File, name string, res *result, list []spec) {
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "%s: %s\n", name, p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, s := range list {
		m := res.metrics[s.name]
		fmt.Fprintf(f, "%-12s %-22s %14.6g %-6s n=%d\n", name, s.name, m.value, s.unit, m.n)
		ms[s.name] = value{m.value, s.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
	fmt.Fprintln(f, string(line))
}

// runAll runs every workload, untraced, and prints one table.
func runAll(seed int64, seconds float64) error {
	var errs []error
	for i := range workloads {
		w := &workloads[i]
		res, err := orchestrate(w, seed, seconds, false)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.name, err))
			continue
		}
		printResult(os.Stdout, w.name, res, summary)
		if !res.correct {
			errs = append(errs, fmt.Errorf("%s: incorrect outputs", w.name))
		}
	}
	return errors.Join(errs...)
}
