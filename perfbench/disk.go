package main

import (
	"sync/atomic"

	"rtreebuf/internal/storage"
)

// timedDisk wraps a storage.DiskManager from outside the storage package.
// It counts every page transfer the buffer pool and the WAL make through
// it and, when a tracer is attached, records each call as a device span
// under the tracer's open operation.
//
// Sync is forwarded explicitly: the WAL's checkpoint finds fsync only by
// asserting interface{ Sync() error } on the manager it holds, so a
// wrapper that merely embedded storage.DiskManager would drop every
// checkpoint fsync and inflate update throughput.
type timedDisk struct {
	storage.DiskManager
	dev spanName // device span name: devPage or devWAL

	reads, writes, writeBytes atomic.Uint64

	// tr is nil on concurrent phases; set only while a single client
	// runs, so the device spans it records have exactly one parent.
	tr *tracer
}

func newTimedDisk(inner storage.DiskManager, dev spanName) *timedDisk {
	return &timedDisk{DiskManager: inner, dev: dev}
}

// ReadPage implements storage.DiskManager.
func (d *timedDisk) ReadPage(page int, dst []byte) error {
	start := d.tr.now()
	err := d.DiskManager.ReadPage(page, dst)
	d.reads.Add(1)
	d.tr.child(d.dev+spanRead, start)
	return err
}

// WritePage implements storage.DiskManager.
func (d *timedDisk) WritePage(page int, data []byte) error {
	start := d.tr.now()
	err := d.DiskManager.WritePage(page, data)
	d.writes.Add(1)
	d.writeBytes.Add(uint64(len(data)))
	d.tr.child(d.dev+spanWrite, start)
	return err
}

// WriteMeta implements storage.DiskManager. The file manager syncs dirty
// page data before it writes the header, so this span holds an fsync
// whenever the storage metrics count one inside it.
func (d *timedDisk) WriteMeta(meta []byte) error {
	start := d.tr.now()
	err := d.DiskManager.WriteMeta(meta)
	d.tr.child(d.dev+spanMeta, start)
	return err
}

// Sync forwards to the wrapped manager's Sync when it has one, as the
// storage package's own wrapping managers do.
func (d *timedDisk) Sync() error {
	s, ok := d.DiskManager.(interface{ Sync() error })
	if !ok {
		return nil
	}
	start := d.tr.now()
	err := s.Sync()
	d.tr.child(d.dev+spanSync, start)
	return err
}

// ioCount is a snapshot of the wrapper's counters.
type ioCount struct{ reads, writes, writeBytes uint64 }

func (d *timedDisk) count() ioCount {
	if d == nil {
		return ioCount{}
	}
	return ioCount{reads: d.reads.Load(), writes: d.writes.Load(), writeBytes: d.writeBytes.Load()}
}
