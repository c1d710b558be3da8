package gridgather_test

import (
	"context"
	"fmt"

	"gridgather"
)

// New creates a simulation session: an incremental, observable,
// checkpointable simulation. Step it by hand, inspect it mid-flight, then
// run the rest to completion.
func ExampleNew() {
	cells, _ := gridgather.Workload("line", 20)
	sim, _ := gridgather.New(cells)

	stepped, _ := sim.StepN(4)
	st := sim.Status()
	fmt.Println("stepped:", stepped)
	fmt.Println("round:", st.Round, "robots:", st.Robots, "gathered:", st.Gathered)

	res := sim.Run(context.Background())
	fmt.Println("rounds:", res.Rounds, "gathered:", res.Gathered)
	// Output:
	// stepped: 4
	// round: 4 robots: 12 gathered: false
	// rounds: 9 gathered: true
}

// Snapshot checkpoints a running session to bytes; Restore resumes it
// bit-identically — the continued run finishes exactly like the
// uninterrupted one.
func ExampleSimulation_Snapshot() {
	cells, _ := gridgather.Workload("hollow", 60)

	reference, _ := gridgather.New(cells)
	want := reference.Run(context.Background())

	sim, _ := gridgather.New(cells)
	sim.StepN(3) // interrupt mid-run…
	snap, _ := sim.Snapshot()
	restored, _ := gridgather.Restore(snap) // …and resume later
	got := restored.Run(context.Background())

	fmt.Println("resumed identically:", got == want)
	fmt.Println("rounds:", got.Rounds)
	// Output:
	// resumed identically: true
	// rounds: 7
}

// Subscribe delivers typed events (round, merge, run-start, gathered,
// abort). Payload slices borrow session-owned scratch — valid only inside
// the callback — which keeps observation allocation-free.
func ExampleSimulation_Subscribe() {
	cells, _ := gridgather.Workload("line", 20)
	sim, _ := gridgather.New(cells)

	mergeRounds, merged := 0, 0
	sim.Subscribe(gridgather.MergeEvents, func(ev gridgather.Event) {
		mergeRounds++
		merged += ev.RoundMerges
	})
	sim.Subscribe(gridgather.GatheredEvents, func(ev gridgather.Event) {
		fmt.Println("gathered at round", ev.Round, "with", len(ev.Robots), "robots")
	})

	res := sim.Run(context.Background())
	fmt.Println("rounds with merges:", mergeRounds)
	fmt.Println("event merges match result:", merged == res.Merges)
	// Output:
	// gathered at round 9 with 2 robots
	// rounds with merges: 9
	// event merges match result: true
}

// Run honors context cancellation between rounds without corrupting the
// session: a cancelled session steps onward.
func ExampleSimulation_Run() {
	cells, _ := gridgather.Workload("line", 20)
	sim, _ := gridgather.New(cells)

	ctx, cancel := context.WithCancel(context.Background())
	sim.Subscribe(gridgather.RoundEvents, func(ev gridgather.Event) {
		if ev.Round == 3 {
			cancel() // stop the Run loop after round 3
		}
	})
	res := sim.Run(ctx)
	fmt.Println("cancelled at round:", res.Rounds, "err:", res.Err)

	res = sim.Run(context.Background()) // resume with a fresh context
	fmt.Println("finished at round:", res.Rounds, "gathered:", res.Gathered)
	// Output:
	// cancelled at round: 3 err: context canceled
	// finished at round: 9 gathered: true
}

// WithConnectivityCheck validates the paper's central safety property
// after every round. A tiny swarm gathers within a linear number of
// rounds; the engine is fully deterministic, so the round count is
// reproducible.
func ExampleWithConnectivityCheck() {
	cells := []gridgather.Point{
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0},
		{X: 4, Y: 0}, {X: 5, Y: 0}, {X: 6, Y: 0}, {X: 7, Y: 0},
	}
	sim, _ := gridgather.New(cells, gridgather.WithConnectivityCheck(true))
	res := sim.Run(context.Background())
	fmt.Println("gathered:", res.Gathered)
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("robots left:", res.FinalRobots)
	// Output:
	// gathered: true
	// rounds: 3
	// robots left: 2
}

// Workload builds the named benchmark families at a requested size.
func ExampleWorkload() {
	cells, err := gridgather.Workload("line", 5)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(cells), "robots")
	fmt.Print(gridgather.Render(cells))
	// Output:
	// 5 robots
	// #####
}

// Workloads lists the workload families the generators provide; each can
// be built at any size with Workload.
func ExampleWorkloads() {
	for _, name := range gridgather.Workloads() {
		fmt.Println(name)
	}
	// Output:
	// line
	// solid
	// hollow
	// staircase
	// spiral
	// sierpinski
	// tree
	// blob
	// walk
	// clusters
	// antcolony
}

// WithWorkers shards each round's Look+Compute phase across a goroutine
// pool; moves and merges are then applied in one serial pass in cell
// order, so any worker count produces the identical simulation.
func ExampleWithWorkers() {
	cells, _ := gridgather.Workload("hollow", 60)
	run := func(workers int) gridgather.Result {
		sim, _ := gridgather.New(cells, gridgather.WithWorkers(workers))
		return sim.Run(context.Background())
	}
	serial, parallel := run(1), run(8)
	fmt.Println("same rounds:", serial.Rounds == parallel.Rounds)
	fmt.Println("same merges:", serial.Merges == parallel.Merges)
	// Output:
	// same rounds: true
	// same merges: true
}

// WithScheduler relaxes the time model. The paper's algorithm is proved
// for FSYNC only, so relaxed schedulers pair with the scheduler-robust
// "greedy" algorithm; the slowdown reflects the scheduler's fairness bound
// (only a subset of robots acts per round).
func ExampleWithScheduler() {
	cells, _ := gridgather.Workload("line", 20)
	fsyncSim, _ := gridgather.New(cells, gridgather.WithAlgorithm("greedy"))
	ssyncSim, _ := gridgather.New(cells,
		gridgather.WithScheduler("ssync"), // round-robin thirds of the swarm
		gridgather.WithAlgorithm("greedy"),
		gridgather.WithConnectivityCheck(true),
	)
	fsyncRes := fsyncSim.Run(context.Background())
	ssyncRes := ssyncSim.Run(context.Background())
	fmt.Println("fsync gathered:", fsyncRes.Gathered)
	fmt.Println("ssync gathered:", ssyncRes.Gathered)
	fmt.Println("ssync slower:", ssyncRes.Rounds > fsyncRes.Rounds)
	// Output:
	// fsync gathered: true
	// ssync gathered: true
	// ssync slower: true
}

// Connected checks the paper's connectivity notion (horizontal/vertical
// adjacency only — diagonals do not connect).
func ExampleConnected() {
	fmt.Println(gridgather.Connected([]gridgather.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}))
	fmt.Println(gridgather.Connected([]gridgather.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}))
	// Output:
	// true
	// false
}

// Render draws a swarm row by row, highest y first: '#' marks a robot and
// '.' a free cell inside the bounding box.
func ExampleRender() {
	fmt.Print(gridgather.Render([]gridgather.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}))
	// Output:
	// #.
	// ##
}
