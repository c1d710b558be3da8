// Pipeline: watch the run states of §3.2 travel along the boundary of a
// large mergeless ring. Every L = 22 rounds new runs start at the corners
// while earlier runs are still rolling robots into the hole — the paper's
// pipelining (§4.2, Fig. 15) that makes the total time linear.
//
// The runner counts stream out of the session's typed event API: the
// Event payload borrows engine-owned scratch, so observing every round
// costs no allocations — only the lengths are kept here.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"gridgather"
)

func main() {
	cells, err := gridgather.Workload("hollow", 220)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mergeless ring with %d robots; runner count per round:\n\n", len(cells))

	sim, err := gridgather.New(cells)
	if err != nil {
		log.Fatal(err)
	}
	history := []int{}
	sim.Subscribe(gridgather.RoundEvents, func(ev gridgather.Event) {
		history = append(history, len(ev.Runners))
	})
	res := sim.Run(context.Background())
	if res.Err != nil {
		log.Fatal(res.Err)
	}

	// A sparkline of concurrent runners: the sawtooth shows batches of runs
	// starting every L rounds and dying in merges.
	const cols = 110
	step := (len(history) + cols - 1) / cols
	fmt.Print("runners ")
	maxR := 1
	for _, h := range history {
		if h > maxR {
			maxR = h
		}
	}
	marks := []rune(" ▁▂▃▄▅▆▇█")
	for i := 0; i < len(history); i += step {
		peak := 0
		for j := i; j < i+step && j < len(history); j++ {
			if history[j] > peak {
				peak = history[j]
			}
		}
		idx := peak * (len(marks) - 1) / maxR
		fmt.Print(string(marks[idx]))
	}
	fmt.Println()
	fmt.Printf("\nmax concurrent runners: %d\n", maxR)
	fmt.Printf("runs started:           %d\n", res.RunsStarted)
	fmt.Printf("rounds:                 %d (%.2f per robot)\n",
		res.Rounds, float64(res.Rounds)/float64(res.InitialRobots))
}
