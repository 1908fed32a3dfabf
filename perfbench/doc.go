// Command perfbench is the repository's benchmark: one command that runs
// a workload against the buffered R-tree, checks every result, and prints
// each metric by name with its unit and sample count. The last line of
// its output is one JSON object with the keys correct, attempted, failed
// and metrics.
//
//	bash perfbench/run.sh --workload read-cold --seed 1 --seconds 10 --trace 0
//
// run.sh builds this module (a module of its own that imports the
// repository's packages through a replace directive) with the Go build
// cache inside the checkout, then runs it. perfbench drives only the
// public API of storage, buffer, core and sim from its own files. The
// seed fixes the generated data and every operation stream; the program
// under test receives only those inputs.
//
// # Workloads
//
// Every workload is a closed loop: a client sends its next operation when
// the previous one returns. The tree workloads use TIGER-like data (the
// stand-in for the paper's Long Beach roads), HS-packed at node capacity
// 100 into 4 KiB pages: 1,000,000 rectangles, 10,101 pages, about 40 MB.
//
//   - read-hot: the tree on a MemoryManager, opened with
//     OpenPagedTreeWith(..., "lru", 8 shards). The buffer holds the whole
//     tree and is loaded before timing. One client per CPU. 90%
//     data-driven window queries of side 0.01, 10% Nearest with k=10.
//     Every node request is a buffer hit, so the cost is the hit path:
//     the ShardedPool page copy, the CRC check, DecodeNode and the search
//     loop. It is the only workload with concurrent readers, so pool
//     striping and latching show here.
//   - read-cold: the tree on a FileManager, opened with OpenPagedTree (the
//     paper's single-lock LRU Pool) with a buffer of 2% of the pages. One
//     client. Uniform window queries of side 0.01, the paper's query
//     model, so measured misses sit next to core.Predictor's prediction.
//     The working set is far larger than the buffer: faults, evictions,
//     ReadPage and GC churn dominate, and a hit-path gain should move it
//     little. A change to the page-request sequence shows in its exact
//     miss count.
//   - update-mixed: the tree opened with OpenPagedTreeWAL and the default
//     CheckpointPolicy{} (checkpoint after every batch), with a buffer of
//     10% of the pages. One client, since updates are single-writer. 50%
//     uniform windows, 30% Insert, 20% Delete of an item the run
//     inserted. Staging, split, encode, WAL append, commit, checkpoint and
//     write-back dominate; a read-path change that costs writes shows
//     here. The page file and the log are MemoryManagers: on a shared
//     disk the fsync tail moved this workload's throughput by 30-60%
//     between runs of one seed, far beyond any bound a regression check
//     could use. The file-backed path, fsync included, is what the
//     package test checks the device wrapper against. 5% of the data is
//     inserted one by one after the rest is packed, which splits most
//     leaves (about 17,100 pages in four levels): a freshly packed tree
//     is full, so the first insert into each leaf splits it and update
//     cost would fall for as long as a run lasts.
//
// The read workloads' setup prices their queries with the paper's cost
// model: core.NewPredictor under the workload's query model (on read-hot
// the data-driven one, which builds a geom.GridCounter over the data
// centres), then DiskAccessesSweep around the buffer size, counting a
// failure if a larger buffer is predicted to cost more. On read-cold
// it also runs sim.Run at the same buffer and counts a failure when the
// simulator and the model disagree by more than Table 1's tolerance (2%
// plus the simulator's confidence half-width); the measured misses per
// query are reported beside the prediction.
//
// A fourth workload, model-sizing (one capacity-planning call per
// operation: predictors for a random query shape, each swept over every
// 5th buffer size of the paper-size tree), was dropped: its sweep-bound
// operation took 13 ms in some runs and 23 ms in others as the host
// changed state, a spread of 34% of the median over ten seeds, so no
// bound of 25% could hold it. core and sim are measured in the read
// workloads' setup instead.
//
// # Phases of a run
//
// Setup (generate, pack, save, open, warm, and the model or simulator
// check) runs three times; setup_s is the median. A count pass then runs
// a fixed prefix of the workload's operation stream on one client and
// attributes every exact counter's change to the operation that caused
// it, so counts such as disk reads per query repeat exactly for a seed,
// whatever the host's speed. The timed phase follows for the requested
// seconds. Last come the checks: a seeded sample of window results
// against a brute-force scan of the data plus the items the run had
// inserted and not deleted when the query ran, kNN distances against a
// brute-force scan, update-mixed's reopen through recovery, item count
// and scrub, and read-cold's simulator check. Every mismatch counts as a
// failed operation. The checks regenerate the data from the seed after
// timing; neither it nor the in-memory tree built in setup stays alive
// through the timed phase, where its heap would set the garbage
// collector's pacing and charge the benchmark's memory to the program.
// Only workloads that draw query points or new items from the data keep
// its centres.
//
// # End-to-end metrics
//
// Reported by an untraced run (--trace 0), the same five on every
// workload, so that each is defined and above zero everywhere:
//
//   - ops_per_s: completed operations per wall second.
//   - cpu_us_per_op: process user+sys CPU, GC included, per operation.
//   - op_p50_us: median latency of the workload's defining operation:
//     the window query on read-hot and read-cold, Insert/Delete with its
//     commit on update-mixed.
//   - alloc_bytes_per_op: heap bytes allocated per operation.
//   - setup_s: the median setup.
//
// The first three are read per slice: the timed phase is cut into 20
// equal slices, an operation counts towards each slice in proportion to
// the part of it the slice covers, and the metric is the median over the
// slices. Interference from other tenants of a shared host comes and
// goes within a run; a burst that covers less than half of it does not
// move a median.
//
// Beside them the run prints, without a bound, the latency of every
// operation type (p50, p95 and p99), disk_reads_per_query (pool misses
// per window query, the paper's measured EDT), nodes_per_query,
// and write_bytes_per_update (page file plus WAL) from the count pass.
// The p95 has no bound: with update-mixed on files it is the fsync tail of
// a shared disk, and on every workload it moved between runs by more
// than the median did.
//
// # Per-layer metrics
//
// A traced run (--trace 1) splits the timed phase: a quarter untraced,
// a half with spans, and a quarter untraced, so that a steady drift of
// the host's speed or the tree's size cancels from trace.overhead. Spans
// are kept in memory and written to <work>/<workload>.spans.csv at the
// end; each has a name,
// start, end, operation number and parent. Device spans come from
// timedDisk, a DiskManager wrapper, and take the open operation as parent
// on single-client workloads; read-hot issues no device reads after its
// buffer is loaded, so its concurrent clients need no attribution. Self
// time is a span's duration minus its children's. Exact counts come from
// the count pass, times from the traced half, runtime figures from the
// untraced quarters. Metrics that do not apply to a workload read 0. Each
// per-layer metric, with the end-to-end metric it should move:
//
//	storage.tree.self_us_per_read        op_p50_us, cpu_us_per_op on read-hot
//	storage.tree.self_us_per_knn         ops_per_s, cpu_us_per_op on read-hot
//	storage.tree.self_us_per_update      op_p50_us on update-mixed
//	storage.tree.nodes_per_query         op_p50_us everywhere; disk reads on read-cold
//	buffer.hit_ratio                     disk reads on read-cold and update-mixed
//	buffer.evictions_per_query           as above
//	buffer.misses_per_query.level<k>     as above (root = level 0)
//	buffer.writebacks_per_update         write bytes per update
//	storage.disk.reads_per_query         op_p50_us on read-cold
//	storage.disk.read_us                 op_p50_us on read-cold
//	storage.disk.busy_share              op_p50_us on read-cold
//	storage.disk.writes_per_update       op_p50_us on update-mixed
//	storage.disk.write_bytes_per_update  as above
//	storage.wal.bytes_per_update         op_p50_us and write bytes on update-mixed
//	storage.wal.device_us_per_update     as above
//	storage.codec.verify_us_per_page     op_p50_us on read-hot
//	storage.codec.decode_us_per_page     op_p50_us on read-hot
//	storage.codec.encode_us_per_page     op_p50_us on update-mixed
//	core.predictor_build_us              setup_s on read-hot and read-cold
//	core.sweep_us                        as above
//	core.model_reads_per_query           the prediction; fixed while the page sequence is
//	core.model_gap                       measured over predicted misses on read-cold
//	sim.validate_s                       setup_s on read-cold
//	datagen.gen_s, pack.load_s,
//	storage.save_s, storage.open_s       setup_s
//	runtime.gc_cycles_per_kop            cpu_us_per_op on read-cold and read-hot
//	runtime.gc_cpu_share                 as above
//	runtime.heap_live_mb                 as above
//	trace.overhead                       1 - traced/mean untraced ops_per_s
//
// The codec figures time the public VerifyPage, DecodeNode and EncodeNode
// on up to 1,024 of the workload's own pages. Per-level misses use a page-to-level map walked from the stored
// tree when the count pass starts; pages later splits allocate are not
// attributed.
//
// # Comparing numbers
//
// Every run prints a header with the seed, nproc, GOMAXPROCS, the Go
// version, the dataset size, page count, buffer pages, client count,
// operation mix and checkpoint policy, so numbers from different hosts
// are not mixed silently. The BENCH_PR4, BENCH_PR5, BENCH_PR8 and
// BENCH_PR9 records predate this benchmark and cannot be compared with
// it: they used other methods, and the same experiment moved between
// hosts by more than any change they record (table1 went from 0.08 s to
// 0.24 s). Latencies here are the host's: read-cold's page reads are
// served mostly from the operating system's page cache, and
// update-mixed writes to memory; they are not a device's.
package main
