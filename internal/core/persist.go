package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/gautrais/stability/internal/retail"
)

// Tracker state snapshot format (little-endian, varint-heavy):
//
//	magic "STK1" (4 bytes)
//	float64 alpha (IEEE 754 bits)
//	byte    policy
//	uvarint maxBlame
//	uvarint windows (W)
//	byte    started (0/1)
//	uvarint seq
//	byte    prevDefined (0/1)
//	float64 prevStability
//	uvarint itemCount
//	per item (ascending ItemID): uvarint idDelta, uvarint c
//
// Snapshots let a long-running monitor persist per-customer model state
// across restarts without replaying the full receipt history.
var trackerMagic = [4]byte{'S', 'T', 'K', '1'}

// WriteSnapshot serializes the tracker's full state.
func (t *Tracker) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(trackerMagic[:]); err != nil {
		return fmt.Errorf("core: write magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putF := func(v float64) error {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(v))
		_, err := bw.Write(buf[:8])
		return err
	}
	putB := func(v bool) error {
		b := byte(0)
		if v {
			b = 1
		}
		return bw.WriteByte(b)
	}
	if err := putF(t.opts.Alpha); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(t.opts.Policy)); err != nil {
		return err
	}
	if err := putU(uint64(t.opts.MaxBlame)); err != nil {
		return err
	}
	if err := putU(uint64(t.windows)); err != nil {
		return err
	}
	if err := putB(t.started); err != nil {
		return err
	}
	if err := putU(uint64(t.seq)); err != nil {
		return err
	}
	if err := putB(t.prevDefined); err != nil {
		return err
	}
	if err := putF(t.prevStability); err != nil {
		return err
	}
	if err := putU(uint64(len(t.items))); err != nil {
		return err
	}
	// The item column is maintained in ascending id order — exactly the
	// snapshot's wire order.
	prev := uint64(0)
	for i, id := range t.items {
		if err := putU(uint64(id) - prev); err != nil {
			return err
		}
		prev = uint64(id)
		if err := putU(uint64(t.counts[i])); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrackerSnapshot restores a tracker from a snapshot written by
// WriteSnapshot. When r is already a *bufio.Reader it is used directly —
// callers embedding tracker snapshots in larger streams (package stream)
// depend on no read-ahead beyond the snapshot's own bytes.
func ReadTrackerSnapshot(r io.Reader) (*Tracker, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: read magic: %w", err)
	}
	if magic != trackerMagic {
		return nil, fmt.Errorf("core: bad magic %q (not a STK1 snapshot)", magic[:])
	}
	var f8 [8]byte
	getF := func() (float64, error) {
		if _, err := io.ReadFull(br, f8[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(f8[:])), nil
	}
	getB := func() (bool, error) {
		b, err := br.ReadByte()
		return b != 0, err
	}

	alpha, err := getF()
	if err != nil {
		return nil, fmt.Errorf("core: read alpha: %w", err)
	}
	policyByte, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("core: read policy: %w", err)
	}
	maxBlame, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("core: read maxBlame: %w", err)
	}
	opts := Options{Alpha: alpha, Policy: CountPolicy(policyByte), MaxBlame: int(maxBlame)}
	t, err := NewTracker(opts)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot options: %w", err)
	}
	windows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("core: read windows: %w", err)
	}
	if windows > math.MaxInt32 {
		// W is an int32 column; a larger count would wrap negative and
		// corrupt every significance exponent 2c−W.
		return nil, fmt.Errorf("core: implausible window count %d", windows)
	}
	t.windows = int32(windows)
	if t.started, err = getB(); err != nil {
		return nil, fmt.Errorf("core: read started: %w", err)
	}
	seq, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("core: read seq: %w", err)
	}
	t.seq = int(seq)
	if t.prevDefined, err = getB(); err != nil {
		return nil, fmt.Errorf("core: read prevDefined: %w", err)
	}
	if t.prevStability, err = getF(); err != nil {
		return nil, fmt.Errorf("core: read prevStability: %w", err)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("core: read item count: %w", err)
	}
	const maxItems = 1 << 28
	if count > maxItems {
		return nil, fmt.Errorf("core: implausible item count %d", count)
	}
	if count > 0 && count <= 1<<16 {
		// Pre-size the columns for plausible repertoires; huge claimed
		// counts allocate incrementally so a corrupt header can't balloon.
		t.items = make([]retail.ItemID, 0, count)
		t.counts = make([]int32, 0, count)
	}
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: read item id: %w", err)
		}
		if d == 0 && i > 0 {
			// Ids are strictly ascending on the wire; a zero delta would
			// duplicate an entry in the canonical order.
			return nil, fmt.Errorf("core: duplicate item id %d in snapshot", prev)
		}
		prev += d
		if prev == 0 || prev > math.MaxUint32 {
			return nil, fmt.Errorf("core: item id %d out of range", prev)
		}
		c, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: read item counter: %w", err)
		}
		if c == 0 || c > windows {
			return nil, fmt.Errorf("core: item %d count %d inconsistent with %d windows", prev, c, windows)
		}
		t.items = append(t.items, retail.ItemID(prev)) // wire order is ascending
		t.counts = append(t.counts, int32(c))
		if int32(c) > t.maxCount {
			t.maxCount = int32(c)
		}
	}
	return t, nil
}
