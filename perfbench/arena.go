package main

import (
	"syscall"
	"unsafe"
)

// arenaChunk is how many values one mapping of an arena holds.
const arenaChunk = 1 << 16

// arena is an append-only sequence of values kept in anonymous memory
// mappings outside the Go heap. What the benchmark records while the
// program is timed (a record per operation, and a traced run's spans)
// grows with the run; on the heap it would raise the garbage
// collector's heap goal, and the program would collect less often than
// it does on its own. The collector neither scans nor counts mapped
// memory, so T must hold no pointers.
type arena[T any] struct {
	chunks [][]T
	maps   [][]byte
	n      int
}

func (a *arena[T]) push(v T) {
	if a.n == len(a.chunks)*arenaChunk {
		a.grow()
	}
	a.chunks[a.n/arenaChunk][a.n%arenaChunk] = v
	a.n++
}

func (a *arena[T]) grow() {
	var zero T
	b, err := syscall.Mmap(-1, 0, arenaChunk*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: mapping memory for records: " + err.Error())
	}
	a.maps = append(a.maps, b)                                                         //lint:allow hotalloc once per arenaChunk spans, traced runs only
	a.chunks = append(a.chunks, unsafe.Slice((*T)(unsafe.Pointer(&b[0])), arenaChunk)) //lint:allow hotalloc as above
}

func (a *arena[T]) len() int { return a.n }

// at returns the i-th value pushed.
func (a *arena[T]) at(i int) *T { return &a.chunks[i/arenaChunk][i%arenaChunk] }

// parts returns the values in order, one slice per mapping.
func (a *arena[T]) parts() [][]T {
	out := make([][]T, len(a.chunks))
	for i, c := range a.chunks {
		out[i] = c[:min(arenaChunk, a.n-i*arenaChunk)]
	}
	return out
}

// free unmaps the arena and empties it. A nil arena frees nothing.
func (a *arena[T]) free() {
	if a == nil {
		return
	}
	for _, b := range a.maps {
		_ = syscall.Munmap(b) // unmapping an address the arena mapped cannot fail
	}
	*a = arena[T]{}
}
