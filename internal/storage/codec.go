package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// Node page layout (little endian):
//
//	0:1   flags (bit 0: leaf)
//	1:2   reserved
//	2:4   entry count
//	4:8   level (paper convention, 0 = root)
//	8:12  CRC-32C of the rest of the page (header with zeroed checksum
//	      field + all entry bytes) — torn or corrupted pages fail decode
//	      instead of silently yielding a wrong query result
//	12:16 reserved
//	16:   entries, entrySize bytes each:
//	      0:32  rect (MinX, MinY, MaxX, MaxY as float64)
//	      32:40 payload: child page (uint64) for internal nodes,
//	            data ID (int64) for leaves
const (
	nodeHeaderSize = 16
	entrySize      = 40
	flagLeaf       = 1
	checksumOffset = 8
)

// NodeCapacity returns the maximum entries per node a page of the given
// size can hold.
func NodeCapacity(pageSize int) int {
	return (pageSize - nodeHeaderSize) / entrySize
}

// EncodeNode serializes nd into a fresh page of the given size.
func EncodeNode(nd rtree.NodeData, pageSize int) ([]byte, error) {
	if err := checkCapacity(len(nd.Rects), pageSize); err != nil {
		return nil, err
	}
	buf := make([]byte, pageSize)
	if nd.Leaf {
		buf[0] = flagLeaf
	}
	binary.LittleEndian.PutUint16(buf[2:4], uint16(len(nd.Rects)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(nd.Level))
	off := nodeHeaderSize
	for i, r := range nd.Rects {
		e := (*entry)(buf[off:])
		e.setRect(r)
		if nd.Leaf {
			e.setPayload(uint64(nd.IDs[i]))
		} else {
			e.setPayload(uint64(nd.Children[i]))
		}
		off += entrySize
	}
	binary.LittleEndian.PutUint32(buf[checksumOffset:], pageChecksum(buf))
	return buf, nil
}

// checkCapacity refuses a node of count entries that does not fit a
// page of the given size.
func checkCapacity(count, pageSize int) error {
	if count > NodeCapacity(pageSize) {
		return fmt.Errorf("storage: node with %d entries exceeds page capacity %d",
			count, NodeCapacity(pageSize))
	}
	return nil
}

// pageChecksum computes the CRC-32C of the page with the checksum field
// treated as zero.
func pageChecksum(buf []byte) uint32 {
	crc := crc32.New(castagnoli)
	crc.Write(buf[:checksumOffset])
	crc.Write(zeroChecksum[:])
	crc.Write(buf[checksumOffset+4:])
	return crc.Sum32()
}

var (
	castagnoli   = crc32.MakeTable(crc32.Castagnoli)
	zeroChecksum [4]byte
)

// VerifyPage checks a node page's stored checksum against its contents
// without decoding it. It returns nil for an intact page and a
// descriptive error for a short, torn, or bit-flipped one — the cheap
// integrity probe the resilience layer and Scrub run before (or instead
// of) a full DecodeNode.
func VerifyPage(buf []byte) error {
	if len(buf) < nodeHeaderSize {
		return fmt.Errorf("storage: page too short (%d bytes)", len(buf))
	}
	if got, want := binary.LittleEndian.Uint32(buf[checksumOffset:]), pageChecksum(buf); got != want {
		return fmt.Errorf("storage: checksum mismatch (%08x != %08x): corrupt or torn page", got, want)
	}
	return nil
}

// checkNode runs every check a node page must pass before anything reads
// it: the checksum, the entry count against the page end, and a valid
// rect in every entry. The buffer pool's source runs it once per fault
// or pin, so a corrupt page fails its read and never becomes resident;
// DecodeNode runs it on the pages it decodes. Errors name the page.
func checkNode(buf []byte, page int) error {
	if err := VerifyPage(buf); err != nil {
		return fmt.Errorf("storage: page %d: %w", page, err)
	}
	count := int(binary.LittleEndian.Uint16(buf[2:4]))
	if nodeHeaderSize+count*entrySize > len(buf) {
		return fmt.Errorf("storage: page %d claims %d entries beyond page end", page, count)
	}
	ents := viewNode(buf).entries()
	for i := 0; len(ents) >= entrySize; i++ {
		if e := (*entry)(ents); !e.valid() {
			return fmt.Errorf("storage: page %d entry %d has invalid rect %v", page, i, e.rect())
		}
		ents = ents[entrySize:]
	}
	return nil
}

// DecodeNode checks a node page (see checkNode) and copies it out. page
// is recorded into the result; the buffer is not retained. Query paths
// read checked frames in place through nodeView instead.
func DecodeNode(buf []byte, page int) (rtree.NodeData, error) {
	if err := checkNode(buf, page); err != nil {
		return rtree.NodeData{}, err
	}
	return viewNode(buf).decode(page), nil
}

// nodeView reads a node page in place, without copying or checking it:
// callers hand it bytes checkNode has already accepted (a frame faulted
// in through the pool's checked source, or one the update path sealed).
// The entry count is clamped to what the buffer holds, so even a frame
// that skipped the checks cannot index past its end.
type nodeView struct {
	buf []byte
	n   int
}

func viewNode(buf []byte) nodeView {
	if len(buf) < nodeHeaderSize {
		return nodeView{}
	}
	n := int(binary.LittleEndian.Uint16(buf[2:4]))
	return nodeView{buf: buf, n: min(n, (len(buf)-nodeHeaderSize)/entrySize)}
}

// Len returns the entry count.
func (v nodeView) Len() int { return v.n }

// Leaf reports whether the entries are data items rather than children.
func (v nodeView) Leaf() bool { return len(v.buf) > 0 && v.buf[0]&flagLeaf != 0 }

// Level returns the node's level (paper convention, 0 = root).
func (v nodeView) Level() int {
	if len(v.buf) < nodeHeaderSize {
		return 0
	}
	return int(binary.LittleEndian.Uint32(v.buf[4:8]))
}

// entries returns the entry bytes, entrySize per entry, in entry order.
// The query paths and checkNode scan them in place: each loop step takes
// the next entry as an *entry, which costs the one bounds check of the
// conversion, and reads its fields without further checks.
func (v nodeView) entries() []byte {
	if v.n == 0 {
		return nil
	}
	return v.buf[nodeHeaderSize : nodeHeaderSize+v.n*entrySize]
}

// entry returns entry i.
func (v nodeView) entry(i int) *entry { return (*entry)(v.entries()[i*entrySize:]) }

// entry is one entry's bytes in place (see the layout above): the
// entry-scan kernel the query paths and checkNode share. Its predicates
// read a coordinate only when the ones before it have not decided the
// answer.
type entry [entrySize]byte

func (e *entry) minX() float64 { return getFloat(e[0:8]) }
func (e *entry) minY() float64 { return getFloat(e[8:16]) }
func (e *entry) maxX() float64 { return getFloat(e[16:24]) }
func (e *entry) maxY() float64 { return getFloat(e[24:32]) }

// rect decodes the entry's rectangle.
func (e *entry) rect() geom.Rect {
	return geom.Rect{MinX: e.minX(), MinY: e.minY(), MaxX: e.maxX(), MaxY: e.maxY()}
}

// payload returns the child page or data ID, undifferentiated.
func (e *entry) payload() uint64 { return binary.LittleEndian.Uint64(e[32:40]) }

// setRect overwrites the entry's rectangle.
func (e *entry) setRect(r geom.Rect) {
	putFloat(e[0:8], r.MinX)
	putFloat(e[8:16], r.MinY)
	putFloat(e[16:24], r.MaxX)
	putFloat(e[24:32], r.MaxY)
}

// setPayload overwrites the child page or data ID.
func (e *entry) setPayload(p uint64) { binary.LittleEndian.PutUint64(e[32:40], p) }

// intersects is e.rect().Intersects(q) — closed intervals, false if any
// compared coordinate is NaN — rejecting on the first failing bound.
func (e *entry) intersects(q geom.Rect) bool {
	return e.minX() <= q.MaxX && q.MinX <= e.maxX() && e.minY() <= q.MaxY && q.MinY <= e.maxY()
}

// valid is e.rect().Valid().
func (e *entry) valid() bool { return e.minX() <= e.maxX() && e.minY() <= e.maxY() }

// decode copies the node out into a NodeData recording page.
func (v nodeView) decode(page int) rtree.NodeData {
	nd := rtree.NodeData{
		Page:  page,
		Leaf:  v.Leaf(),
		Level: v.Level(),
		Rects: make([]geom.Rect, v.Len()),
	}
	if nd.Leaf {
		nd.IDs = make([]int64, v.Len())
	} else {
		nd.Children = make([]int, v.Len())
	}
	for i := range nd.Rects {
		e := v.entry(i)
		nd.Rects[i] = e.rect()
		if nd.Leaf {
			nd.IDs[i] = int64(e.payload())
		} else {
			nd.Children[i] = int(e.payload())
		}
	}
	return nd
}

func putFloat(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}

func getFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
