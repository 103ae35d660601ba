// Example serve: the asynchronous job API end to end, in process.
// Two discovery jobs run concurrently over one workload through a
// serve.Scheduler — sharing the workload engine's memoized valuations
// and its queue in the scheduler's inference pool — while the main
// goroutine streams one job's progress events as they happen. The
// same Submit/Events/Result flow is what modisd serves over HTTP; see
// docs/serving.md.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/modis"
	"repro/modis/serve"
	"repro/modis/workload"
)

func main() {
	// One workload, identified by its canonical descriptor: T3 (avocado
	// price regression), surrogate off so every valuation is exact and
	// the inference sharing below is easy to read.
	built, err := workload.BuildTask("t3", 140, false)
	if err != nil {
		log.Fatal(err)
	}

	sched := serve.NewScheduler(serve.SchedulerOptions{})
	if err := sched.Register(built.Desc, built.Cfg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered %s as shard %s\n", built.Desc.Name, built.Desc.Short())
	ctx := context.Background()
	opts := []modis.Option{modis.WithEpsilon(0.1), modis.WithMaxLevel(2)}

	// Submit returns immediately; the jobs run concurrently on the
	// workload's shared engine.
	biJob, err := sched.Submit(ctx, "t3", "bi", opts...)
	if err != nil {
		log.Fatal(err)
	}
	apxJob, err := sched.Submit(ctx, "t3", "apx", opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s (bi) and %s (apx)\n", biJob.ID(), apxJob.ID())

	// Stream one job's progress while both run. Events replay from the
	// start, so subscribing after Submit loses nothing.
	for ev := range biJob.Events() {
		fmt.Printf("  bi: level=%d frontier=%d valuated=%d skyline=%d done=%v\n",
			ev.Level, ev.Frontier, ev.Valuated, ev.SkylineSize, ev.Done)
	}

	biRep, err := biJob.Result()
	if err != nil {
		log.Fatal(err)
	}
	apxRep, err := apxJob.Result()
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range []*modis.Report{biRep, apxRep} {
		fmt.Printf("%s: %d skyline members, %d valuated, %d exact calls, wall %v\n",
			rep.Algorithm, len(rep.Skyline), rep.Valuated, rep.ExactCalls,
			rep.Wall.Round(time.Millisecond))
	}
	// The two searches traverse overlapping states; the shared engine
	// valuates each state once, so the exact calls summed stay well
	// below two isolated runs.
	fmt.Printf("exact calls total: %d (shared memo + single-flight)\n",
		biRep.ExactCalls+apxRep.ExactCalls)
}
