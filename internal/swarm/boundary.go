package swarm

import (
	"sort"

	"gridgather/internal/grid"
)

// exteriorCells returns the free cells of the bounding box inflated by one
// that are 4-reachable from the box corner, i.e. the exterior region
// restricted to the box.
func (s *Swarm) exteriorCells() map[grid.Point]struct{} {
	b := s.Bounds()
	if b.Empty() {
		return nil
	}
	box := grid.Rect{MinX: b.MinX - 1, MinY: b.MinY - 1, MaxX: b.MaxX + 1, MaxY: b.MaxY + 1}
	start := grid.Pt(box.MinX, box.MinY)
	ext := make(map[grid.Point]struct{})
	ext[start] = struct{}{}
	stack := []grid.Point{start}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range grid.Neighbors4(p) {
			if !box.Contains(q) || s.Has(q) {
				continue
			}
			if _, ok := ext[q]; !ok {
				ext[q] = struct{}{}
				stack = append(stack, q)
			}
		}
	}
	return ext
}

// Holes returns the enclosed free regions (one sorted cell list per hole).
// A swarm with holes has inner boundaries.
func (s *Swarm) Holes() [][]grid.Point {
	b := s.Bounds()
	if b.Empty() {
		return nil
	}
	ext := s.exteriorCells()
	seen := make(map[grid.Point]struct{})
	var holes [][]grid.Point
	for y := b.MinY; y <= b.MaxY; y++ {
		for x := b.MinX; x <= b.MaxX; x++ {
			start := grid.Pt(x, y)
			if s.Has(start) {
				continue
			}
			if _, isExt := ext[start]; isExt {
				continue
			}
			if _, ok := seen[start]; ok {
				continue
			}
			var hole []grid.Point
			stack := []grid.Point{start}
			seen[start] = struct{}{}
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				hole = append(hole, p)
				for _, q := range grid.Neighbors4(p) {
					if s.Has(q) {
						continue
					}
					if _, isExt := ext[q]; isExt {
						continue
					}
					if !b.Contains(q) {
						continue
					}
					if _, ok := seen[q]; !ok {
						seen[q] = struct{}{}
						stack = append(stack, q)
					}
				}
			}
			sort.Slice(hole, func(i, j int) bool { return hole[i].Less(hole[j]) })
			holes = append(holes, hole)
		}
	}
	return holes
}
