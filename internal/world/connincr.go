package world

// This file is the incremental connectivity layer: the O(k)-per-round
// replacement for the full bitset BFS behind Dense.Connected.
//
// The structure exploited here is the paper's own: robots move L∞ ≤ 1 per
// round, so a move can change component structure only inside the 3×3
// neighborhood of its source and target cells — which, at chunk
// granularity, means a round that dirtied k chunks can only have changed
// (a) the internal connectivity of those k chunks and (b) the seam links
// between a dirtied chunk and its four chunk neighbors. Everything else is
// provably unchanged and is reused from the previous round.
//
// The state hangs off the tiles: every occupied 64×64 chunk's tile carries
// a chunkConn (tile.conn), and a chunk that empties hands its chunkConn to
// a free list. It keeps:
//
//   - a local component label per occupied cell (labels are dense ids
//     0..ncomps-1, recomputed by a word-parallel row-run pass whenever the
//     chunk's occupancy words changed — Commit detects that from the
//     rows the round wrote, so a chunk no robot entered or left costs
//     nothing);
//   - cached seam links for the two borders the chunk owns (east and
//     north; every chunk pair is covered exactly once, and 4-connectivity
//     has no diagonal cross-chunk adjacency): the pairs of local component
//     labels that touch across the border. A border cache is invalidated
//     whenever either endpoint chunk is dirtied.
//
// A Connected query then relabels the dirty chunks, refreshes the
// invalidated border caches, and runs a small union-find over the chunk
// components (one node per local component, one union per cached seam
// link): the swarm is connected iff exactly one root remains. The
// union-find is rebuilt per query — union-find supports merges but not the
// splits a departing robot can cause, and rebuilding over the *chunk
// component graph* (thousands of nodes at n = 2^20, not millions) is what
// makes splits free while keeping the query cost proportional to the
// chunk-level structure instead of the robot count.
//
// The scratch flood of the bitset survives as the reference:
// ConnectedBFS answers from scratch. The layer does not exist before the
// first query of a world, including the first after a snapshot restore:
// that query builds it from the live tiles — one relabel per occupied
// chunk, no BFS — and answers from it like any other query; until then
// Commit queues nothing. The suites in this package and internal/fsync
// hold the incremental answer to the reference round by round, first
// queries included. Degraded-mode gathering does not use this layer:
// Dense.LargestLiveComponent answers it with one scratch flood.

import "math/bits"

// connLink is one seam adjacency: local component a of the owning chunk
// touches local component b of the neighbor across the border.
type connLink struct {
	a, b uint16
}

// chunkConn is the connectivity state of one occupied chunk, hung off its
// tile: local component labels under the chunk's occupied cells, and the
// cached seam links of the two borders the chunk owns (east: towards chunk
// (cx+1, cy); north: towards chunk (cx, cy+1)) with the neighbour tiles
// they were read against.
type chunkConn struct {
	ncomps int
	labels [tileSize * tileSize]uint16

	east, north       []connLink
	eastNbr, northNbr *tile
	eastOK, northOK   bool

	base int32 // per-query scratch: first global union-find node of this chunk
}

// rowRun is one horizontal run of consecutive occupied cells during a
// chunk relabel: its bit mask within the row and the provisional run id.
type rowRun struct {
	mask uint64
	hi   int8 // index one past the highest set bit (for interval walks)
	id   int32
}

// ConnStats is the observable state of the incremental layer, for tests
// and benchmarks.
type ConnStats struct {
	// Queries counts Connected calls answered by the incremental layer;
	// Fallbacks counts the subset that found no structure (the first query
	// of a world, restored worlds included) and built it before answering
	// from it.
	Queries, Fallbacks int
	// Relabels counts chunk component recomputations.
	Relabels int
	// Chunks and Comps are the current chunk-graph size: occupied chunks
	// and total local components (union-find nodes) at the last query.
	Chunks, Comps int
}

// connIncr is the world-level incremental connectivity state.
type connIncr struct {
	dirty []*tile

	stats ConnStats

	// scratch, reused across queries
	parent  []int32
	runUF   []int32
	runRows []int8 // run id → row (for the label fill pass)
	runs    []rowRun
	free    []*chunkConn // chunkConn free list (emptied chunks)
}

// markDirty queues t for relabeling at the next query. Idempotent per
// tile until the query drains the list.
func (c *connIncr) markDirty(t *tile) {
	if !t.connDirty {
		t.connDirty = true
		c.dirty = append(c.dirty, t)
	}
}

// Commit-time change detection lives in Dense.noteEdits (quiesce.go): one
// diff of the rows the round wrote queues changed chunks here via
// markDirty and feeds the quiescence dirty planes.

// connReady counts a query and brings the incremental structure up to
// date with the current occupancy: the first query builds it from the live
// tiles, a later one relabels the chunks queued since the last query.
func (d *Dense) connReady() *connIncr {
	c := d.conn
	if c == nil {
		// The first query: Commit queues nothing before the layer
		// exists, so building from the live tiles is the whole work.
		c = &connIncr{}
		d.conn = c
		c.stats.Fallbacks++
		for _, t := range d.live {
			c.refresh(d, t)
		}
	}
	c.stats.Queries++
	for _, t := range c.dirty {
		t.connDirty = false
		c.refresh(d, t)
	}
	c.dirty = c.dirty[:0]
	return c
}

// refresh brings one chunk's state in line with the current occupancy
// layer: relabel its components (or detach its state if it emptied) and
// invalidate every border cache involving it.
func (c *connIncr) refresh(d *Dense, t *tile) {
	cc := t.conn
	if t.occCols == 0 {
		if cc != nil {
			// The last robot left: the chunk's components and owned
			// border caches die with it.
			t.conn = nil
			c.free = append(c.free, cc)
			c.invalidateNeighbors(d, t)
		}
		return
	}
	if cc == nil {
		if n := len(c.free); n > 0 {
			cc = c.free[n-1]
			c.free = c.free[:n-1]
			cc.east, cc.north = cc.east[:0], cc.north[:0]
		} else {
			cc = &chunkConn{}
		}
		t.conn = cc
	}
	c.relabel(cc, t)
	cc.eastOK, cc.northOK = false, false
	c.invalidateNeighbors(d, t)
}

// invalidateNeighbors drops the border caches facing t: the west
// neighbor's east border and the south neighbor's north border. The
// chunk's own east/north caches are handled by its refresh (or its
// emptying).
func (c *connIncr) invalidateNeighbors(d *Dense, t *tile) {
	if w := d.tileAtChunk(t.cx-1, t.cy); w != nil && w.conn != nil {
		w.conn.eastOK = false
	}
	if s := d.tileAtChunk(t.cx, t.cy-1); s != nil && s.conn != nil {
		s.conn.northOK = false
	}
}

// relabel recomputes the chunk's local component labels with a row-run
// pass: each maximal run of consecutive occupied cells in a row is a
// provisional component, runs of vertically adjacent rows whose masks
// intersect are unioned, and the run roots are flattened to dense ids.
// Cost is O(rows + runs·α), word-parallel in the occupancy bits.
func (c *connIncr) relabel(cc *chunkConn, t *tile) {
	c.stats.Relabels++
	runs := c.runs[:0]
	uf := c.runUF[:0]
	rows := c.runRows[:0]
	prevLo := 0 // index into runs of the previous non-empty row's runs
	prevRow := -2
	for y := 0; y < tileSize; y++ {
		w := t.bits[y]
		if w == 0 {
			continue
		}
		curLo := len(runs)
		for rem := w; rem != 0; {
			lo := bits.TrailingZeros64(rem)
			span := bits.TrailingZeros64(^(rem >> uint(lo)))
			var mask uint64
			if span >= 64 {
				mask = ^uint64(0)
			} else {
				mask = ((uint64(1) << uint(span)) - 1) << uint(lo)
			}
			rem &^= mask
			id := int32(len(runs))
			runs = append(runs, rowRun{mask: mask, hi: int8(min(lo+span, 64) - 1), id: id})
			uf = append(uf, id)
			rows = append(rows, int8(y))
		}
		if prevRow == y-1 {
			// Union runs with the overlapping runs of the row above:
			// both interval lists are ascending, so one merged walk.
			i, j := prevLo, curLo
			for i < curLo && j < len(runs) {
				if runs[i].mask&runs[j].mask != 0 {
					unionRuns(uf, runs[i].id, runs[j].id)
				}
				if runs[i].hi < runs[j].hi {
					i++
				} else {
					j++
				}
			}
		}
		prevLo, prevRow = curLo, y
	}
	// Flatten: assign dense component ids in run order, then write the
	// labels of every cell of every run.
	ncomps := 0
	for i := range runs {
		if r := findRun(uf, int32(i)); r == int32(i) {
			runs[i].id = int32(ncomps)
			ncomps++
		}
	}
	for i := range runs {
		comp := uint16(runs[findRun(uf, int32(i))].id)
		row := int(rows[i]) << tileShift
		for m := runs[i].mask; m != 0; m &= m - 1 {
			cc.labels[row|bits.TrailingZeros64(m)] = comp
		}
	}
	cc.ncomps = ncomps
	c.runs, c.runUF, c.runRows = runs, uf, rows
}

func findRun(uf []int32, i int32) int32 {
	for uf[i] != i {
		uf[i] = uf[uf[i]]
		i = uf[i]
	}
	return i
}

func unionRuns(uf []int32, a, b int32) {
	ra, rb := findRun(uf, a), findRun(uf, b)
	if ra != rb {
		uf[ra] = rb
	}
}

// query runs the chunk-graph union-find — one node per local component,
// one union per cached seam link — and reports whether at most one root
// remains. Border caches invalidated by this round's dirty chunks are
// recomputed here, after every relabel is done, so links always pair
// fresh labels on both sides. Once the dirty chunks are refreshed every
// live tile carries a chunkConn and no other tile does, so both loops walk
// d.live in its deterministic order: label bases, and therefore the
// union-find trace, come out identical on every run.
func (c *connIncr) query(d *Dense) bool {
	var n int32
	for _, t := range d.live {
		t.conn.base = n
		n += int32(t.conn.ncomps)
	}
	c.stats.Chunks, c.stats.Comps = len(d.live), int(n)
	if n <= 1 {
		return true
	}
	if cap(c.parent) < int(n) {
		c.parent = make([]int32, n)
	}
	c.parent = c.parent[:n]
	for i := range c.parent {
		c.parent[i] = int32(i)
	}
	roots := n
	for _, t := range d.live {
		cc := t.conn
		if !cc.eastOK {
			cc.eastNbr = d.tileAtChunk(t.cx+1, t.cy)
			cc.east = appendEastLinks(cc.east[:0], t, cc.eastNbr)
			cc.eastOK = true
		}
		if !cc.northOK {
			cc.northNbr = d.tileAtChunk(t.cx, t.cy+1)
			cc.north = appendNorthLinks(cc.north[:0], t, cc.northNbr)
			cc.northOK = true
		}
		for _, l := range cc.east {
			roots -= c.union(cc.base+int32(l.a), cc.eastNbr.conn.base+int32(l.b))
		}
		for _, l := range cc.north {
			roots -= c.union(cc.base+int32(l.a), cc.northNbr.conn.base+int32(l.b))
		}
	}
	return roots == 1
}

// appendEastLinks collects the seam links across t's east border with its
// neighbor nbr (nil if never allocated): cells in t's column 63 that are
// 4-adjacent to occupied cells in nbr's column 0, found with one AND of
// the two column words. Consecutive duplicate pairs are skipped (vertical
// runs touch along many rows); remaining duplicates are harmless — union
// is idempotent.
func appendEastLinks(links []connLink, t, nbr *tile) []connLink {
	if nbr == nil {
		return links
	}
	w := t.cols[tileMask] & nbr.cols[0]
	for ; w != 0; w &= w - 1 {
		y := bits.TrailingZeros64(w)
		l := connLink{t.conn.labels[y<<tileShift|tileMask], nbr.conn.labels[y<<tileShift]}
		if n := len(links); n == 0 || links[n-1] != l {
			links = append(links, l)
		}
	}
	return links
}

// appendNorthLinks collects the seam links across t's north border: cells
// in its row 63 adjacent to occupied cells in nbr's row 0.
func appendNorthLinks(links []connLink, t, nbr *tile) []connLink {
	if nbr == nil {
		return links
	}
	w := t.bits[tileMask] & nbr.bits[0]
	for ; w != 0; w &= w - 1 {
		x := bits.TrailingZeros64(w)
		l := connLink{t.conn.labels[tileMask<<tileShift|x], nbr.conn.labels[x]}
		if n := len(links); n == 0 || links[n-1] != l {
			links = append(links, l)
		}
	}
	return links
}

func (c *connIncr) union(a, b int32) int32 {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return 0
	}
	c.parent[ra] = rb
	return 1
}

func (c *connIncr) find(i int32) int32 {
	p := c.parent
	for p[i] != i {
		p[i] = p[p[i]]
		i = p[i]
	}
	return i
}
