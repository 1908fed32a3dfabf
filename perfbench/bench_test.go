package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rtreebuf/internal/storage"
)

// small returns a workload shrunk to test size. read-cold keeps its
// data: its setup checks the cost model against the simulator, and with
// the 4-page buffer 2% of a 20,000-rect tree gives, the model is 45%
// below the simulator, far outside Table 1's tolerance.
func small(t *testing.T, name string) spec {
	t.Helper()
	sp, ok := lookupSpec(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	if sp.name != "read-cold" {
		sp.rects = 20000
	}
	sp.warmOps = min(sp.warmOps, 200)
	sp.countOps = min(sp.countOps, 400)
	return sp
}

func runSmall(t *testing.T, sp spec, seed uint64, trace bool) *result {
	t.Helper()
	res, err := run(config{spec: sp, seed: seed, seconds: 0.2, trace: trace, work: t.TempDir(), setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", sp.name, res.failed, res.attempted, res.errs)
	}
	return res
}

// exact drops the counters only a traced run's buffer mirror fills.
func exact(c counts) counts {
	for k := range c.by {
		c.by[k].writeBacks = 0
		c.by[k].levelMisses = [maxLevels]uint64{}
	}
	return c
}

func info(r *result) map[string]float64 {
	m := map[string]float64{}
	for _, x := range r.info {
		m[x.name] = x.value
	}
	return m
}

// TestCountsRepeat: two runs with one seed give identical exact counts,
// and the traced run gives the same counts as the untraced one — the
// benchmark's instrumentation changes nothing it counts. The counters
// only the traced run fills are checked against the pool's own: on a
// read-only tree every page has a level, so the per-level misses sum to
// the misses, none fall below the leaves and read-cold misses leaves;
// and updates write pages back.
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"read-hot", "read-cold", "update-mixed"} {
		t.Run(name, func(t *testing.T) {
			sp := small(t, name)
			a := runSmall(t, sp, 7, false)
			b := runSmall(t, sp, 7, false)
			tr := runSmall(t, sp, 7, true)
			if !reflect.DeepEqual(a.counts, b.counts) {
				t.Errorf("counts differ between runs:\n%+v\n%+v", a.counts, b.counts)
			}
			if !reflect.DeepEqual(a.counts, exact(tr.counts)) {
				t.Errorf("counts differ traced vs untraced:\n%+v\n%+v", a.counts, exact(tr.counts))
			}
			ia, ib := info(a), info(b)
			for _, m := range []string{"disk_reads_per_query", "nodes_per_query", "write_bytes_per_update"} {
				if ia[m] != ib[m] {
					t.Errorf("%s: %v then %v", m, ia[m], ib[m])
				}
			}
			if a.counts.ops[opWindow] == 0 {
				t.Error("count pass ran no window queries")
			}
			if sp.wal {
				n, u := a.counts.updates()
				if n == 0 || u.disk.writes == 0 || u.wal.writeBytes == 0 {
					t.Errorf("update counts empty: %d updates, %+v", n, u)
				}
				if _, tu := tr.counts.updates(); tu.writeBacks == 0 {
					t.Error("traced run counted no buffer write-backs on updates")
				}
			} else {
				var all snap
				for _, s := range tr.counts.by {
					all.add(s)
				}
				var levels uint64
				for _, n := range all.levelMisses {
					levels += n
				}
				if levels != all.misses {
					t.Errorf("per-level misses sum to %d, the pool counted %d misses", levels, all.misses)
				}
				for l := tr.levels; l < maxLevels; l++ {
					if all.levelMisses[l] != 0 {
						t.Errorf("%d misses at level %d of a %d-level tree", all.levelMisses[l], l, tr.levels)
					}
				}
				if name == "read-cold" && all.levelMisses[tr.levels-1] == 0 {
					t.Errorf("read-cold count pass missed no leaves: %v", all.levelMisses)
				}
			}
		})
	}
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (e2e, layers []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	return e2e, layers
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.name + " " + m.unit
	}
	return out
}

// TestEveryWorkloadRuns: every workload runs clean, an untraced run
// reports exactly BENCHMARK.json's end-to-end metrics, all above zero,
// and a traced run exactly its per-layer metrics, in its order.
func TestEveryWorkloadRuns(t *testing.T) {
	wantE2E, wantLayers := declared(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			sp := small(t, name)
			plain := runSmall(t, sp, 3, false)
			traced := runSmall(t, sp, 3, true)
			if got := names(plain.e2e); !reflect.DeepEqual(got, wantE2E) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json has %v", got, wantE2E)
			}
			for _, m := range plain.e2e {
				if !(m.value > 0) {
					t.Errorf("%s = %v, want > 0", m.name, m.value)
				}
			}
			if got := names(traced.layers); !reflect.DeepEqual(got, wantLayers) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json has %v", got, wantLayers)
			}
		})
	}
}

// noSync hides the wrapped manager's Sync, as a wrapper that only embeds
// storage.DiskManager would.
type noSync struct{ storage.DiskManager }

// updateCounts sets up a small update-mixed tree, lets reopen replace
// its devices, and returns the count pass's update totals.
func updateCounts(t *testing.T, reopen func(e *env, path string)) snap {
	t.Helper()
	sp := small(t, "update-mixed")
	sp.file, sp.warmOps = true, 0
	e, err := setup(sp, 11, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if reopen != nil {
		if err := e.disk.Close(); err != nil {
			t.Fatal(err)
		}
		if err := e.walDisk.Close(); err != nil {
			t.Fatal(err)
		}
		e.disk, e.walDisk = nil, nil
		reopen(e, filepath.Join(e.dir, "tree.pages"))
	}
	n, u := e.countPass(300).updates()
	if n == 0 || e.main.failed != 0 {
		t.Fatalf("%d updates, %d failed: %v", n, e.main.failed, e.main.errs)
	}
	return u
}

// openBare reopens the tree's files with storage metrics attached and
// the given wrapper (nil for none) around each device.
func openBare(t *testing.T, wrap func(storage.DiskManager) storage.DiskManager) func(e *env, path string) {
	return func(e *env, path string) {
		fm, err := storage.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		wfm, err := storage.OpenFile(storage.WALPath(path))
		if err != nil {
			t.Fatal(err)
		}
		storage.SetManagerMetrics(fm, storage.NewMetrics(e.pageReg))
		walMetrics := storage.NewMetrics(e.walReg)
		storage.SetManagerMetrics(wfm, walMetrics)
		var dm, wdm storage.DiskManager = fm, wfm
		if wrap != nil {
			dm, wdm = wrap(fm), wrap(wfm)
		}
		pt, _, err := storage.OpenPagedTreeWAL(dm, wdm, e.bufferPages)
		if err != nil {
			t.Fatal(err)
		}
		pt.WAL().SetMetrics(walMetrics)
		t.Cleanup(func() {
			_ = fm.Close()  // test teardown
			_ = wfm.Close() // test teardown
		})
		e.pt = pt
	}
}

// TestWrapperKeepsFsyncs: the timing wrapper must forward Sync, or every
// checkpoint fsync is silently dropped. Fsyncs and bytes written agree
// with the storage metrics with the wrapper and without it, and a wrapper
// that hides Sync is caught.
func TestWrapperKeepsFsyncs(t *testing.T) {
	wrapped := updateCounts(t, nil)
	bare := updateCounts(t, openBare(t, nil))
	if wrapped.diskFsyncs == 0 || wrapped.walFsyncs == 0 {
		t.Fatalf("no fsyncs counted: %+v", wrapped)
	}
	if wrapped.diskFsyncs != bare.diskFsyncs || wrapped.walFsyncs != bare.walFsyncs {
		t.Errorf("fsyncs page/WAL: wrapped %d/%d, bare %d/%d",
			wrapped.diskFsyncs, wrapped.walFsyncs, bare.diskFsyncs, bare.walFsyncs)
	}
	if wrapped.diskBytes != bare.diskBytes || wrapped.walBytes != bare.walBytes {
		t.Errorf("bytes page/WAL: wrapped %d/%d, bare %d/%d",
			wrapped.diskBytes, wrapped.walBytes, bare.diskBytes, bare.walBytes)
	}
	if wrapped.disk.writeBytes != wrapped.diskBytes || wrapped.wal.writeBytes != wrapped.walBytes {
		t.Errorf("wrapper counted %d/%d bytes, storage metrics %d/%d",
			wrapped.disk.writeBytes, wrapped.wal.writeBytes, wrapped.diskBytes, wrapped.walBytes)
	}

	hidden := updateCounts(t, openBare(t, func(dm storage.DiskManager) storage.DiskManager { return noSync{dm} }))
	if hidden.diskFsyncs >= bare.diskFsyncs {
		t.Errorf("a wrapper hiding Sync kept %d of %d page-file fsyncs; the check cannot see the drop",
			hidden.diskFsyncs, bare.diskFsyncs)
	}
}
