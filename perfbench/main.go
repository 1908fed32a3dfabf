package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rtreebuf/internal/datagen"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's data and operations are drawn from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench"), "directory for page files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := lookupSpec(*workload)
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{spec: sp, seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work, setups: setupRepeats}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	return 0
}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median.
const setupRepeats = 3

type config struct {
	spec    spec
	seed    uint64
	seconds float64
	trace   bool
	work    string
	setups  int
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

type result struct {
	header    []string
	e2e       []metric // the JSON metrics of an untraced run
	info      []metric // printed beside them, not in the JSON
	layers    []metric // the JSON metrics of a traced run
	trace     bool
	correct   bool
	attempted int
	failed    int
	errs      []string
	counts    counts // the count pass, for the tests
	levels    int    // the packed tree's depth, for the tests
}

func run(cfg config) (res *result, err error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, cfg.spec.name+"-")
	if err != nil {
		return nil, err
	}
	var e *env
	defer func() {
		e.close()
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()

	var setupWall []float64
	var times []setupTimes
	for i := 0; i < cfg.setups; i++ {
		e.close()
		e = nil
		sdir := filepath.Join(dir, strconv.Itoa(i))
		if err := os.Mkdir(sdir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC() // the previous setup's garbage is not this one's cost
		start := time.Now()
		if e, err = setup(cfg.spec, cfg.seed, sdir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupWall = append(setupWall, elapsed(start))
		times = append(times, e.times)
	}

	clients := make([]*client, 1)
	if cfg.spec.perCPU {
		clients = make([]*client, runtime.NumCPU())
	}
	for i := range clients {
		clients[i] = e.newClient(clientStream(i))
	}

	if cfg.trace {
		if err := e.attachBufferMetrics(); err != nil {
			return nil, err
		}
	}
	cs := e.countPass(cfg.spec.countOps)
	e.detachBufferMetrics()

	d := time.Duration(cfg.seconds * float64(time.Second))
	var plain []phase
	var traced phase
	if cfg.trace {
		// The traced half sits between two untraced quarters, so a steady
		// drift of host speed or tree size cancels from trace.overhead.
		plain = append(plain, e.timed(clients, d/4, false))
		traced = e.timed(clients, d/2, true)
		plain = append(plain, e.timed(clients, d/4, false))
	} else {
		plain = append(plain, e.timed(clients, d, false))
	}
	defer func() {
		for _, ph := range append(plain, traced) {
			ph.free()
		}
	}()

	rects := datagen.TIGERLike(cfg.spec.rects, cfg.seed) // the setup's data again
	for _, c := range append(clients, e.main) {
		e.verifySamples(c, rects)
	}
	var ct codecTimes
	if cfg.trace {
		if ct, err = e.timeCodec(); err != nil {
			return nil, fmt.Errorf("codec timing: %w", err)
		}
		if err := writeSpans(filepath.Join(cfg.work, cfg.spec.name+".spans.csv"), traced.tracers); err != nil {
			return nil, err
		}
	}
	if cfg.spec.wal {
		e.verifyReopen()
	}

	res = &result{trace: cfg.trace, counts: cs, levels: len(e.levelCounts)}
	res.header = header(cfg, e, len(clients))
	res.attempted = e.checks
	res.failed = len(e.failures)
	res.errs = append(res.errs, e.failures...)
	for _, c := range append(clients, e.main) {
		res.attempted += c.ops
		res.failed += c.failed
		res.errs = append(res.errs, c.errs...)
	}
	res.correct = res.failed == 0
	if cfg.trace {
		res.layers = perLayer(e, cs, plain, traced, ct, medianTimes(times))
	} else {
		res.e2e, res.info = endToEnd(cfg.spec, plain[0], cs, median(setupWall))
	}
	return res, nil
}

func medianTimes(ts []setupTimes) setupTimes {
	pick := func(f func(setupTimes) float64) float64 {
		v := make([]float64, len(ts))
		for i, t := range ts {
			v[i] = f(t)
		}
		return median(v)
	}
	return setupTimes{
		gen:   pick(func(t setupTimes) float64 { return t.gen }),
		pack:  pick(func(t setupTimes) float64 { return t.pack }),
		save:  pick(func(t setupTimes) float64 { return t.save }),
		open:  pick(func(t setupTimes) float64 { return t.open }),
		model: pick(func(t setupTimes) float64 { return t.model }),
		sim:   pick(func(t setupTimes) float64 { return t.sim }),
		build: pick(func(t setupTimes) float64 { return t.build }),
		sweep: pick(func(t setupTimes) float64 { return t.sweep }),
	}
}

func header(cfg config, e *env, clients int) []string {
	sp := cfg.spec
	trace, timed := 0, fmt.Sprintf("timed %gs", cfg.seconds)
	if cfg.trace {
		trace, timed = 1, timed+" (a quarter untraced, a half traced, a quarter untraced)"
	}
	h := []string{
		fmt.Sprintf("perfbench: workload=%s seed=%d seconds=%g trace=%d", sp.name, cfg.seed, cfg.seconds, trace),
		fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("dataset: %d TIGER-like rects, HS-packed, node capacity %d, %d pages, nodes per level %v",
			sp.rects, nodeCap, e.pages, e.levelCounts),
	}
	manager := "MemoryManager"
	if sp.file {
		manager = "FileManager"
	}
	pool := "Pool (single lock)"
	if sp.shards > 1 {
		pool = fmt.Sprintf("ShardedPool, %d shards", sp.shards)
	}
	if sp.wal {
		manager += ", WAL on a " + manager
	}
	h = append(h, fmt.Sprintf("buffer: %d pages (%.1f%% of the tree), LRU %s, page file on a %s", e.bufferPages, 100*float64(e.bufferPages)/float64(e.pages), pool, manager))
	h = append(h, fmt.Sprintf("clients: %d closed-loop; mix: %s", clients, mixString(sp.mix)))
	ckpt := "none (read-only tree)"
	if sp.wal {
		ckpt = "CheckpointPolicy{} (default: checkpoint after every batch)"
	}
	h = append(h, "checkpoint: "+ckpt)
	h = append(h, fmt.Sprintf("phases: setup x%d (median reported), warm-up %d ops, count pass %d ops (one client, exact counts), %s",
		cfg.setups, sp.warmOps, sp.countOps, timed))
	if !sp.wal {
		h = append(h, fmt.Sprintf("model: core.Predictor expects %.4f nodes visited and %.4f disk accesses per window query at this buffer",
			e.modelNodes, e.modelReads))
	}
	return h
}

func mixString(m mix) string {
	where := "uniform"
	if m.dataDriven {
		where = "data-driven"
	}
	var parts []string
	pct := func(v float64) string { return strconv.FormatFloat(100*v, 'f', -1, 64) + "%" }
	if m.window > 0 {
		parts = append(parts, fmt.Sprintf("window %s (%s, side %g)", pct(m.window), where, windowSide))
	}
	if m.knn > 0 {
		parts = append(parts, fmt.Sprintf("knn %s (k=%d, %s)", pct(m.knn), knnK, where))
	}
	if m.insert > 0 {
		parts = append(parts, "insert "+pct(m.insert))
	}
	if del := 1 - m.window - m.knn - m.insert; del > 1e-9 {
		parts = append(parts, "delete "+pct(math.Round(del*100)/100)+" (of earlier inserts)")
	}
	return strings.Join(parts, ", ")
}

func per(num float64, den int) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}

// endToEnd computes the bounded metrics of an untraced run and the
// informational ones printed beside them.
func endToEnd(sp spec, ph phase, cs counts, setup float64) (e2e, info []metric) {
	ops := ph.ops()
	isPrimary := func(k opKind) bool { return k == sp.primary || (sp.primary.update() && k.update()) }
	slicedOps, slicedCPU, slicedP50 := ph.sliced(isPrimary)
	e2e = []metric{
		{"ops_per_s", median(slicedOps), "1/s", ops},
		{"cpu_us_per_op", median(slicedCPU) * 1e6, "us", ops},
		{"op_p50_us", median(slicedP50), "us", len(ph.latencies(isPrimary))},
		{"alloc_bytes_per_op", per(ph.proc.allocs, ops), "B", ops},
		{"setup_s", setup, "s", setupRepeats},
	}
	for _, g := range []struct {
		name  string
		match func(opKind) bool
	}{
		{"read", func(k opKind) bool { return k == opWindow }},
		{"knn", func(k opKind) bool { return k == opKNN }},
		{"update", opKind.update},
	} {
		lat := ph.latencies(g.match)
		if len(lat) == 0 {
			continue
		}
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
			info = append(info, metric{g.name + "_" + q.name + "_us", quantile(lat, q.q), "us", len(lat)})
		}
	}
	nW, w := cs.ops[opWindow], cs.by[opWindow]
	if nW > 0 {
		info = append(info,
			metric{"disk_reads_per_query", per(float64(w.misses), nW), "count", nW},
			metric{"nodes_per_query", per(float64(w.hits+w.misses), nW), "count", nW})
	}
	if nU, u := cs.updates(); nU > 0 {
		info = append(info,
			metric{"write_bytes_per_update", per(float64(u.disk.writeBytes+u.wal.writeBytes), nU), "B", nU})
	}
	return e2e, info
}

// perLayer computes the traced run's per-layer metrics. Exact counts
// come from the count pass, times from the traced phase, runtime figures
// from the untraced phases around it.
func perLayer(e *env, cs counts, plain []phase, traced phase, ct codecTimes, st setupTimes) []metric {
	nW, w := cs.ops[opWindow], cs.by[opWindow]
	nU, u := cs.updates()
	var all snap
	for k := range cs.by {
		all.add(cs.by[k])
	}
	spans := traced.spans
	selfPer := func(kinds ...opKind) float64 {
		var ns float64
		n := 0
		for _, k := range kinds {
			ns += spans.selfNs[k]
			n += spans.ops[k]
		}
		return per(ns/1e3, n)
	}
	callUs := func(names ...spanName) (float64, int) {
		var ns float64
		n := 0
		for _, s := range names {
			ns += spans.callNs[s]
			n += spans.calls[s]
		}
		return ns / 1e3, n
	}
	readUs, reads := callUs(devPage + spanRead)
	nTraced := spans.ops[opInsert] + spans.ops[opDelete]
	gap := 0.0
	if e.modelReads > 0 && nW > 0 {
		gap = per(float64(w.misses), nW) / e.modelReads
	}
	var proc procStats
	ops, rate := 0, 0.0
	for _, ph := range plain {
		proc.add(ph.proc)
		ops += ph.ops()
		rate += ph.opsPerSec() / float64(len(plain))
	}
	overhead := 0.0
	if rate > 0 {
		overhead = 1 - traced.opsPerSec()/rate
	}
	hitRatio := 0.0
	if all.hits+all.misses > 0 {
		hitRatio = float64(all.hits) / float64(all.hits+all.misses)
	}
	m := []metric{
		{"storage.tree.self_us_per_read", selfPer(opWindow), "us", spans.ops[opWindow]},
		{"storage.tree.self_us_per_knn", selfPer(opKNN), "us", spans.ops[opKNN]},
		{"storage.tree.self_us_per_update", selfPer(opInsert, opDelete), "us", nTraced},
		{"storage.tree.nodes_per_query", per(float64(w.hits+w.misses), nW), "count", nW},
		{"buffer.hit_ratio", hitRatio, "ratio", int(all.hits + all.misses)},
		{"buffer.evictions_per_query", per(float64(w.evictions), nW), "count", nW},
	}
	for l := 0; l < maxLevels; l++ {
		m = append(m, metric{fmt.Sprintf("buffer.misses_per_query.level%d", l), per(float64(w.levelMisses[l]), nW), "count", nW})
	}
	m = append(m,
		metric{"buffer.writebacks_per_update", per(float64(u.writeBacks), nU), "count", nU},
		metric{"storage.disk.reads_per_query", per(float64(w.disk.reads), nW), "count", nW},
		metric{"storage.disk.read_us", per(readUs, reads), "us", reads},
		metric{"storage.disk.busy_share", spans.devNs[0] / 1e9 / math.Max(traced.wall, 1e-9), "ratio", spans.calls[devPage+spanRead]},
		metric{"storage.disk.writes_per_update", per(float64(u.disk.writes), nU), "count", nU},
		metric{"storage.disk.write_bytes_per_update", per(float64(u.disk.writeBytes), nU), "B", nU},
		metric{"storage.wal.bytes_per_update", per(float64(u.wal.writeBytes), nU), "B", nU},
		metric{"storage.wal.device_us_per_update", per((spans.devOpNs[opInsert][1]+spans.devOpNs[opDelete][1])/1e3, nTraced), "us", nTraced},
		metric{"storage.codec.verify_us_per_page", ct.verify, "us", codecPages},
		metric{"storage.codec.decode_us_per_page", ct.decode, "us", codecPages},
		metric{"storage.codec.encode_us_per_page", ct.encode, "us", codecPages},
		metric{"core.predictor_build_us", st.build * 1e6, "us", setupRepeats},
		metric{"core.sweep_us", st.sweep * 1e6, "us", setupRepeats},
		metric{"core.model_reads_per_query", e.modelReads, "count", 1},
		metric{"core.model_gap", gap, "ratio", nW},
		metric{"sim.validate_s", st.sim, "s", setupRepeats},
		metric{"datagen.gen_s", st.gen, "s", setupRepeats},
		metric{"pack.load_s", st.pack, "s", setupRepeats},
		metric{"storage.save_s", st.save, "s", setupRepeats},
		metric{"storage.open_s", st.open, "s", setupRepeats},
		metric{"runtime.gc_cycles_per_kop", per(proc.gcCycles*1e3, ops), "count", ops},
		metric{"runtime.gc_cpu_share", proc.gcCPU / math.Max(proc.cpu, 1e-9), "ratio", ops},
		metric{"runtime.heap_live_mb", proc.heapLive / 1e6, "MB", 1},
		metric{"trace.overhead", overhead, "ratio", traced.ops()},
	)
	return m
}

// write prints the header, a table of every metric with its unit and
// sample count, and the result object as the last line.
func (r *result) write(w io.Writer) error {
	var b strings.Builder
	for _, h := range r.header {
		fmt.Fprintln(&b, h)
	}
	table := func(title string, ms []metric) {
		fmt.Fprintf(&b, "%-40s %16s %-6s %9s\n", title, "value", "unit", "samples")
		for _, m := range ms {
			fmt.Fprintf(&b, "%-40s %16.6g %-6s %9d\n", m.name, m.value, m.unit, m.samples)
		}
	}
	jsonSet := r.e2e
	if r.trace {
		table("per-layer metric (traced run)", r.layers)
		jsonSet = r.layers
	} else {
		table("end-to-end metric", r.e2e)
		table("also measured (not bounded)", r.info)
	}
	fmt.Fprintf(&b, "ops: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintln(&b, "failure:", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range jsonSet {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}
