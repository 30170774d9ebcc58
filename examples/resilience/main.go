// Resilience: idempotent tasks riding out passive failure domains
// (Design Principle #3 / Difference #5). A batch of computations runs
// on two accelerator chassis while a declarative fault plan repeatedly
// kills and revives them. Every task still commits exactly its correct
// output — re-execution from the input snapshot is the whole recovery
// mechanism; no checkpoints, no task-side fault tolerance.
package main

import (
	"fmt"

	"fcc"
	"fcc/internal/faa"
	"fcc/internal/fault"
	"fcc/internal/sim"
	"fcc/internal/task"
)

const nTasks = 40

func main() {
	cluster, err := fcc.New(fcc.Config{
		Hosts: 1, FAMs: 1, FAMCapacity: 1 << 26, FAAs: 2,
	})
	if err != nil {
		panic(err)
	}
	fam := cluster.FAMs[0]
	runner := task.NewRunner(cluster.Eng, cluster.Hosts[0].Endpoint())
	for _, d := range cluster.FAAs {
		runner.AddEngine(faa.NewEngine(d))
	}

	// Seed inputs: task i sums 128 u64s starting at i*1KB.
	expected := make([]uint64, nTasks)
	for i := 0; i < nTasks; i++ {
		for j := 0; j < 128; j++ {
			v := uint64(i*1000 + j)
			fam.DRAM().Store().Write64(uint64(i)*1024+uint64(j)*8, v)
			expected[i] += v
		}
	}

	// Fault plan: kill alternating chassis every 40us, each reviving 20us
	// later. Tasks take ~10-30us, so many attempts die mid-flight.
	inj := cluster.NewInjector(13)
	plan := fault.NewPlan("alternating-chassis-kill")
	for round := 0; round <= 40; round++ {
		plan.KillChassis(15*sim.Microsecond+sim.Time(round)*40*sim.Microsecond,
			cluster.FAAs[round%2].Name(), 20*sim.Microsecond)
	}
	if err := inj.Schedule(plan); err != nil {
		panic(err)
	}

	attempts := sim.NewHistogram()
	done := 0
	cluster.Go("batch", func(p *sim.Proc) {
		for i := 0; i < nTasks; i++ {
			i := i
			tk := &task.Task{
				Name:    fmt.Sprintf("sum%d", i),
				Inputs:  []task.Region{{Port: fam.ID(), Addr: uint64(i) * 1024, Size: 1024}},
				Outputs: []task.Region{{Port: fam.ID(), Addr: 0x100000 + uint64(i)*64, Size: 8}},
				Body: func(c *task.Ctx) error {
					var s uint64
					for j := 0; j < 1024; j += 8 {
						s += task.GetU64(c.Input(0), j)
					}
					task.PutU64(c.Output(0), 0, s)
					c.Compute(15 * sim.Microsecond)
					return nil
				},
				MaxAttempts: 40,
			}
			res := runner.SubmitP(p, tk)
			attempts.Observe(float64(res.Attempts))
			done++
		}
	})
	cluster.Run()

	bad := 0
	for i := 0; i < nTasks; i++ {
		got := fam.DRAM().Store().Read64(0x100000 + uint64(i)*64)
		if got != expected[i] {
			bad++
			fmt.Printf("task %d WRONG: %d != %d\n", i, got, expected[i])
		}
	}
	fmt.Printf("tasks completed:   %d/%d\n", done, nTasks)
	fmt.Printf("correct results:   %d/%d\n", nTasks-bad, nTasks)
	fmt.Printf("attempts per task: mean %.2f  max %.0f\n", attempts.Mean(), attempts.Max())
	fmt.Printf("runner attempts:   %d (failures retried: %d)\n",
		runner.Attempts.Value(), runner.Failures.Value())
	fmt.Printf("faults injected:   %d (healed: %d)\n",
		inj.Injected(), inj.Healed())
	if bad == 0 && runner.Failures.Value() > 0 {
		fmt.Println("\nevery task survived chassis failures via snapshot re-execution")
	}
}
