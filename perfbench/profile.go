package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
)

// The traced run attributes each CPU and allocation sample to one of the
// repo's layers by the leaf-most frame that belongs to a layer. Runtime
// frames pass through to their caller, so allocation, copying and GC
// assists count against the code that caused them; a sample made only of
// runtime frames (background GC, the scheduler) is the runtime layer.
// Frames in the syscall, poll, net, os and io packages pass through too, and
// a sample that passed through one is charged to the transport (netnode or
// livenet) that made the call, even when a proto frame reader sits between
// them.

// layers lists the attribution buckets in report order.
var layers = []string{"sim", "rng", "machine", "lang", "proto", "livenet", "netnode", "core", "runtime", "other"}

// memProfileRate is the traced run's allocation sampling interval.
const memProfileRate = 64 << 10

var passPrefixes = []string{
	"syscall.", "internal/poll.", "internal/runtime/syscall.", "internal/syscall/",
	"net.", "os.", "io.", "bufio.", "sync.", "internal/sync.",
}

// layerOf maps a frame to its layer; "" means pass through to the caller.
func layerOf(fn, file string) string {
	for _, p := range passPrefixes {
		if strings.HasPrefix(fn, p) {
			return ""
		}
	}
	pkg := pkgOf(fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return ""
	case pkg == "math/rand" || strings.HasSuffix(file, "/internal/machine/rngcache.go"):
		return "rng"
	}
	switch strings.TrimPrefix(pkg, "repro/internal/") {
	case "sim":
		return "sim"
	case "machine", "recovery", "checkpoint", "balance", "stamp", "topology", "trace":
		return "machine"
	case "expr":
		if strings.HasSuffix(file, "/codec.go") {
			return "proto"
		}
		return "lang"
	case "lang":
		return "lang"
	case "proto":
		return "proto"
	case "livenet":
		return "livenet"
	case "netnode":
		return "netnode"
	case "core":
		return "core"
	}
	return "other"
}

// pkgOf is the import path of a symbol name such as
// "repro/internal/machine.(*Proc).handle".
func pkgOf(fn string) string {
	i := strings.LastIndex(fn, "/") + 1
	if j := strings.Index(fn[i:], "."); j >= 0 {
		return fn[:i+j]
	}
	return fn
}

type frame struct{ fn, file string }

// attribute charges a stack, leaf first, to its layer.
func attribute(stack []frame) string {
	syscall := false
	for i, f := range stack {
		if !syscall && strings.HasPrefix(f.fn, "syscall.") {
			syscall = true
		}
		l := layerOf(f.fn, f.file)
		if l == "" {
			continue
		}
		if syscall {
			for _, g := range stack[i:] {
				if t := layerOf(g.fn, g.file); t == "netnode" || t == "livenet" {
					return t
				}
			}
		}
		return l
	}
	if len(stack) > 0 && pkgOf(stack[len(stack)-1].fn) == "runtime" {
		return "runtime"
	}
	return "other"
}

// tracer holds one traced run's profiles.
type tracer struct {
	cpu bytes.Buffer
}

func startTrace() (*tracer, error) {
	runtime.MemProfileRate = memProfileRate
	t := &tracer{}
	if err := pprof.StartCPUProfile(&t.cpu); err != nil {
		return nil, err
	}
	return t, nil
}

// finish stops profiling, attributes the samples and writes the profiles
// under dir for go tool pprof.
func (t *tracer) finish(dir, tag string, specs []string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	runtime.GC() // publish the allocation samples of the run
	out := map[string]float64{}
	cpu, err := cpuByLayer(t.cpu.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range layers {
		out["cpu."+l] = cpu[l]
	}
	allocs, total := allocByLayer()
	out["alloc.rng_mb"] = allocs["rng"] / (1 << 20)
	if total > 0 {
		out["alloc.rng_share"] = allocs["rng"] / total
	}
	us, err := compileMicros(specs)
	if err != nil {
		return nil, err
	}
	out["eval.compile_us"] = us
	if err := os.MkdirAll(dir, 0o755); err == nil {
		_ = os.WriteFile(filepath.Join(dir, tag+".cpu.pb.gz"), t.cpu.Bytes(), 0o644)
		if f, err := os.Create(filepath.Join(dir, tag+".allocs.pb.gz")); err == nil {
			_ = pprof.Lookup("allocs").WriteTo(f, 0)
			_ = f.Close()
		}
	}
	return out, nil
}

// allocByLayer sums the allocation profile's bytes per layer, unsampled the
// way pprof does it.
func allocByLayer() (map[string]float64, float64) {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := map[string]float64{}
	var total float64
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		avg := float64(r.AllocBytes) / float64(r.AllocObjects)
		scale := 1 / (1 - math.Exp(-avg/float64(memProfileRate)))
		bytes := float64(r.AllocBytes) * scale
		var stack []frame
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, frame{f.Function, f.File})
			if !more {
				break
			}
		}
		out[attribute(stack)] += bytes
		total += bytes
	}
	return out, total
}

// compileMicros times the default evaluator's Compile of every program the
// workload submits, on fresh program values so the evaluator's per-program
// memo cannot answer; the median of five compiles per program, summed.
func compileMicros(specs []string) (float64, error) {
	ev, err := lang.EvaluatorByName(core.DefaultEval)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, spec := range specs {
		var ts []float64
		for range 5 {
			w, err := core.StandardWorkload(spec)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			if _, err := ev.Compile(w.Program); err != nil {
				return 0, err
			}
			ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		total += median(ts)
	}
	return total, nil
}

// cpuByLayer decodes a gzipped pprof CPU profile and sums sample CPU
// seconds per layer by the leaf-most layer frame.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	// Value index of CPU nanoseconds: the sample type whose unit is
	// "nanoseconds".
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("no nanoseconds sample type")
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		var stack []frame
		for _, id := range s.locs {
			for _, fnID := range p.locations[id] {
				f := p.functions[fnID]
				stack = append(stack, frame{p.str(f[0]), p.str(f[1])})
			}
		}
		out[attribute(stack)] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	strings     []string
	sampleTypes [][2]int64 // type, unit string indexes
	samples     []psample
	locations   map[uint64][]uint64 // location id -> function ids, leaf first
	functions   map[uint64][2]int64 // function id -> name, filename string indexes
}

type psample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// pbField is one decoded protobuf field: a varint or a byte slice.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func pbFields(b []byte, each func(pbField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", f.wire)
		}
		if err := each(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints appends a repeated varint field, packed or not.
func varints(f pbField, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return out, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64][2]int64{}}
	err := pbFields(b, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			var st [2]int64
			err := pbFields(f.b, func(g pbField) error {
				if g.num == 1 || g.num == 2 {
					st[g.num-1] = int64(g.v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case 2: // sample
			var s psample
			var vals []uint64
			err := pbFields(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = varints(g, s.locs)
				case 2:
					vals, err = varints(g, vals)
				}
				return err
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var nf [2]int64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					nf[0] = int64(g.v)
				case 4:
					nf[1] = int64(g.v)
				}
				return nil
			})
			p.functions[id] = nf
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
		return nil
	})
	return p, err
}
