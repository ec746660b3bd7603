package core

import (
	"reflect"
	"testing"

	"wormsim/internal/telemetry"
)

func TestRunEmitsTicks(t *testing.T) {
	cfg := quickTelCfg()
	cfg.TickCycles = 100
	var ticks []TickEvent
	cfg.OnTick = func(ev TickEvent) { ticks = append(ticks, ev) }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) < 2 {
		t.Fatalf("only %d ticks for a %d-cycle run", len(ticks), res.Cycles)
	}
	last := ticks[len(ticks)-1]
	if !last.Final {
		t.Error("closing tick not marked Final")
	}
	for i, ev := range ticks {
		if ev.Algorithm != cfg.Algorithm || ev.K != cfg.K || ev.OfferedLoad != cfg.OfferedLoad {
			t.Fatalf("tick %d lost run identity: %+v", i, ev)
		}
		if i > 0 && ev.Cycle < ticks[i-1].Cycle {
			t.Fatalf("tick cycles went backwards: %d then %d", ticks[i-1].Cycle, ev.Cycle)
		}
		if ev.Telemetry == nil {
			t.Fatalf("tick %d missing telemetry summary", i)
		}
		if len(ev.ChannelFlits) == 0 {
			t.Fatalf("tick %d missing channel flits", i)
		}
	}
	// The final tick's totals must agree with the result's accounting.
	if last.Counters.Delivered != res.Delivered {
		t.Errorf("final tick delivered %d, result says %d", last.Counters.Delivered, res.Delivered)
	}
	// Fresh-event streaming: ticks never replay events (each event is
	// recorded once, so the concatenation is at most everything recorded).
	total := 0
	for _, ev := range ticks {
		total += len(ev.Events)
	}
	if rec := int(res.Telemetry.TraceEvicted) + res.Telemetry.TraceEvents; total > rec {
		t.Errorf("ticks carried %d events, only %d were recorded", total, rec)
	}
}

// TestObserversDoNotPerturb pins the determinism contract for the two new
// hooks: attaching OnTick and a phase profiler must leave the Result
// bit-identical to a bare run.
func TestObserversDoNotPerturb(t *testing.T) {
	cfg := quickTelCfg()
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := cfg
	obs.TickCycles = 50
	obs.OnTick = func(TickEvent) {}
	obs.PhaseProf = telemetry.NewPhaseProfiler()
	got, err := Run(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Errorf("observed run diverged from bare run:\nbase %+v\ngot  %+v", base, got)
	}
	if s := obs.PhaseProf.Snapshot(); s.Cycles == 0 || s.Total() == 0 {
		t.Errorf("phase profiler saw nothing: %+v", s)
	}
}

// TestRunReplicasTicksPerSeed: OnTick publishes one replica's state, so
// RunReplicas runs OnTick configs one seed per batch — every seed publishes
// its own stream, one seed after another, ending in exactly one Final tick,
// and each stream and Result equal a Run of that seed.
func TestRunReplicasTicksPerSeed(t *testing.T) {
	cfg := quickTelCfg()
	cfg.TickCycles = 200
	seeds := []uint64{5, 19, 77}
	var got []TickEvent
	cfg.OnTick = func(ev TickEvent) { got = append(got, ev) }
	results, err := RunReplicas(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		var want []TickEvent
		c := cfg
		c.Seed = seed
		c.OnTick = func(ev TickEvent) { want = append(want, ev) }
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], res) {
			t.Errorf("seed %d: replica result diverges from Run", seed)
		}
		if len(want) < 2 || len(got) < len(want) {
			t.Fatalf("seed %d: %d ticks left for a stream of %d", seed, len(got), len(want))
		}
		stream := got[:len(want)]
		got = got[len(want):]
		for j, ev := range stream {
			if ev.Seed != seed || ev.Final != (j == len(stream)-1) {
				t.Fatalf("seed %d: tick %d is seed %d, Final=%v", seed, j, ev.Seed, ev.Final)
			}
		}
		if !reflect.DeepEqual(stream, want) {
			t.Errorf("seed %d: published ticks differ from Run's", seed)
		}
		if last := stream[len(stream)-1]; last.Counters.Delivered != res.Delivered {
			t.Errorf("seed %d: final tick delivered %d, result says %d", seed, last.Counters.Delivered, res.Delivered)
		}
	}
	if len(got) != 0 {
		t.Errorf("%d ticks beyond the seeds' streams", len(got))
	}
}
