// Command gatherviz animates a gathering run as ASCII frames, making the
// merge waves and the runner pipeline of the paper visible. It observes a
// public Simulation session through the typed event API — frames are built
// inside the round-event callback from the borrowed event payload.
//
// Usage:
//
//	gatherviz -workload hollow -n 120 -every 4
//	gatherviz -workload hollow -n 120 -live       # redraw in place
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gridgather"
	"gridgather/internal/grid"
	"gridgather/internal/trace"
)

func main() {
	var (
		workload = flag.String("workload", "hollow", "workload family")
		n        = flag.Int("n", 120, "approximate robot count")
		every    = flag.Int("every", 2, "capture every k-th round")
		live     = flag.Bool("live", false, "animate in place with ANSI clear codes")
		delay    = flag.Duration("delay", 60*time.Millisecond, "frame delay in -live mode")
	)
	flag.Parse()
	if *every < 1 {
		*every = 1
	}

	cells, err := gridgather.Workload(*workload, *n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (have %s)\n", err, strings.Join(gridgather.Workloads(), ", "))
		os.Exit(2)
	}
	viewport := boundsOf(cells)

	var frames []trace.Frame
	frames = append(frames, trace.FrameOf(0, toGrid(cells), nil, 0, viewport))
	sim, err := gridgather.New(cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sim.Subscribe(gridgather.RoundEvents|gridgather.GatheredEvents, func(ev gridgather.Event) {
		if ev.Kind == gridgather.EventRound && ev.Round%*every != 0 {
			return
		}
		if len(frames) > 0 && frames[len(frames)-1].Round == ev.Round {
			return // the gathered event follows the final round event
		}
		frames = append(frames, trace.FrameOf(ev.Round, toGrid(ev.Robots), toGrid(ev.Runners), ev.Merges, viewport))
	})
	res := sim.Run(context.Background())
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "simulation failed: %v\n", res.Err)
		os.Exit(1)
	}

	if *live {
		for _, f := range frames {
			fmt.Print("\033[H\033[2J")
			fmt.Printf("round %d | robots %d | merges %d | runners %d\n%s",
				f.Round, f.Robots, f.Merges, f.Runners, f.Art)
			time.Sleep(*delay)
		}
	} else {
		for _, f := range frames {
			fmt.Printf("--- round %d | robots %d | merges %d | runners %d ---\n%s\n",
				f.Round, f.Robots, f.Merges, f.Runners, f.Art)
		}
	}
	fmt.Printf("gathered in %d rounds (%d merges, %d runs)\n",
		res.Rounds, res.Merges, res.RunsStarted)
}

// toGrid converts borrowed public event points into grid points (copying —
// the event payload must not be retained past the callback).
func toGrid(pts []gridgather.Point) []grid.Point {
	out := make([]grid.Point, len(pts))
	for i, p := range pts {
		out[i] = grid.Pt(p.X, p.Y)
	}
	return out
}

func boundsOf(cells []gridgather.Point) grid.Rect {
	r := grid.EmptyRect
	for _, c := range cells {
		r = r.Include(grid.Pt(c.X, c.Y))
	}
	return r
}
