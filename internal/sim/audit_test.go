package sim

import (
	"errors"
	"reflect"
	"testing"

	"github.com/ethselfish/ethselfish/internal/mining"
	"github.com/ethselfish/ethselfish/internal/rewards"
	"github.com/ethselfish/ethselfish/internal/rng"
)

// audited returns cfg with the full (every-event) invariant audit enabled.
func audited(cfg Config) Config {
	cfg.Audit = AuditConfig{Enabled: true, SampleEvery: 1}
	return cfg
}

// TestAuditValidation: a negative sampling interval is a configuration
// error.
func TestAuditValidation(t *testing.T) {
	cfg := Config{
		Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 10,
		Audit: AuditConfig{Enabled: true, SampleEvery: -1},
	}
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
}

// TestAuditCleanRuns: the full audit passes on healthy configurations
// across the engine's feature matrix — single and multiple pools, mixed
// strategies, both gamma extremes, capped uncles, the Bitcoin schedule,
// and the continuous-time path.
func TestAuditCleanRuns(t *testing.T) {
	multi, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := mining.Equal(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"single pool", Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 4000, Seed: 1}},
		{"gamma zero", Config{Population: twoAgent(t, 0.4), Gamma: 0, Blocks: 3000, Seed: 2}},
		{"gamma one", Config{Population: twoAgent(t, 0.3), Gamma: 1, Blocks: 3000, Seed: 3}},
		{"two pools mixed strategies", Config{
			Population: multi, Gamma: 0.5, Blocks: 4000, Seed: 4,
			Strategies: []Strategy{Algorithm1{}, Stubborn{Lead: true}},
		}},
		{"honest only", Config{Population: honest, Gamma: 0.5, Blocks: 2000, Seed: 5}},
		{"capped uncles", Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 3000, Seed: 6, MaxUnclesPerBlock: 2}},
		{"bitcoin schedule", Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 3000, Seed: 7, Schedule: rewards.Bitcoin()}},
		{"no pool uncle refs", Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 3000, Seed: 8, PoolOmitsUncleRefs: true}},
		{"timed", Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 3000, Seed: 9, Time: TimeConfig{Enabled: true}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(audited(tt.cfg)); err != nil {
				t.Errorf("full audit failed a clean run: %v", err)
			}
		})
	}
}

// TestAuditDoesNotChangeResults: auditing observes; the audited Result must
// be bit-identical to the unaudited one, at every sampling interval.
func TestAuditDoesNotChangeResults(t *testing.T) {
	cfg := Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 5000, Seed: 11, Time: TimeConfig{Enabled: true}}
	want := run(t, cfg)
	for _, every := range []int{1, 7, 1024} {
		cfg.Audit = AuditConfig{Enabled: true, SampleEvery: every}
		got := run(t, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("SampleEvery=%d: audited result differs from unaudited", every)
		}
	}
}

// TestAuditRunnerReuse: one Runner alternating audited and unaudited runs
// keeps both bit-identical to fresh executions — the auditor's cursor state
// resets with the rest of the simulator.
func TestAuditRunnerReuse(t *testing.T) {
	plain := Config{Population: twoAgent(t, 0.3), Gamma: 0.5, Blocks: 3000, Seed: 21}
	wantPlain := run(t, plain)
	rn := NewRunner()
	for i := 0; i < 2; i++ {
		if _, err := rn.Run(audited(plain)); err != nil {
			t.Fatalf("audited run %d: %v", i, err)
		}
		got, err := rn.Run(plain)
		if err != nil {
			t.Fatalf("plain run %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, wantPlain) {
			t.Fatalf("round %d: reused Runner diverged from a fresh run", i)
		}
	}
}

// TestAuditSampledSkipsEvents: a sparse sample still audits the final state
// (regression guard: a run shorter than the interval must not escape the
// conservation check entirely).
func TestAuditSampledSkipsEvents(t *testing.T) {
	cfg := Config{
		Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 100, Seed: 31,
		Audit: AuditConfig{Enabled: true, SampleEvery: 1 << 20},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("sampled audit failed: %v", err)
	}
}

// auditedPrefix runs the first n events of an audited cfg by hand and
// returns the simulator, ready for a test to corrupt behind the engine's
// back.
func auditedPrefix(t *testing.T, cfg Config, n int) *simulator {
	t.Helper()
	cfg = audited(cfg).withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	s := &simulator{}
	s.init(cfg)
	pop := cfg.Population
	for i := 0; i < n; i++ {
		s.recordState()
		miner := pop.Sample(s.random)
		var err error
		if miner.Pool != mining.HonestPool {
			err = s.poolEvent(int(miner.Pool)-1, miner.ID)
		} else {
			err = s.honestEvent(miner.ID)
		}
		if err == nil {
			err = s.flushFloor()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestAuditCatchesCorruptedForkChildren: corrupt the incremental candidate
// set behind the engine's back and the next audit must report ErrAudit —
// the auditor genuinely compares against a brute-force rescan.
func TestAuditCatchesCorruptedForkChildren(t *testing.T) {
	s := auditedPrefix(t, Config{Population: twoAgent(t, 0.35), Gamma: 0.5, Blocks: 400, Seed: 41}, 50)
	phantom := candidate{id: s.tree.Genesis(), parent: -1, height: 0, refs: noRef, last: noRef}
	s.forkChildren = append(s.forkChildren, phantom)
	if err := s.auditEvent(50); !errors.Is(err, ErrAudit) {
		t.Errorf("err = %v, want ErrAudit after corrupting the fork-child set", err)
	}
}

// fig8Audited is the costliest Fig. 8 regime for the uncle bookkeeping:
// alpha 0.45 under a flat Ku with no uncle depth limit, fully audited.
func fig8Audited(t *testing.T, pop *mining.Population, blocks int) Config {
	t.Helper()
	flat, err := rewards.Constant(0.5, rewards.NoDepthLimit)
	if err != nil {
		t.Fatal(err)
	}
	return audited(Config{Population: pop, Gamma: 0.5, Schedule: flat, Blocks: blocks, Seed: 45})
}

// TestAuditChainViewsFig8: the full auditor — brute-force fork-child
// rescan, referencer lists rebuilt from the tree's uncle lists, arena node
// accounting, and every chain view against the tree's ancestry — passes at
// every event across the engine modes that move the views differently.
func TestAuditChainViewsFig8(t *testing.T) {
	twoPools, err := mining.MultiAgent(0.25, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	plain := fig8Audited(t, twoAgent(t, 0.45), 2000)
	capped := plain
	capped.MaxUnclesPerBlock = 2
	long := fig8Audited(t, twoAgent(t, 0.45), 4000)
	ffwd := plain
	ffwd.FastForward = true
	// Random legal reactions adopt while ahead, which moves a pool's view
	// down — the only move that rewrites a whole ring.
	random := fig8Audited(t, twoPools, 2000)
	random.Strategies = []Strategy{&randomReactor{r: rng.New(1)}, &randomReactor{r: rng.New(2)}}
	cases := []struct {
		name   string
		cfg    Config
		evicts bool
	}{
		{"plain", plain, false},
		{"two pools", fig8Audited(t, twoPools, 2000), false},
		{"capped uncles", capped, false},
		{"streaming", long, true},
		{"fast-forward", ffwd, false},
		{"random legal strategies", random, false},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			var rn Runner
			res, err := rn.Run(tt.cfg)
			if err != nil {
				t.Fatalf("full audit failed a clean run: %v", err)
			}
			if res.UncleCount == 0 {
				t.Fatal("no uncles referenced: the referencer lists went unexercised")
			}
			if tt.evicts && rn.s.tree.Evicted() == 0 {
				t.Fatal("long run never compacted the tree")
			}
		})
	}
}

// TestAuditCatchesCorruptedViewsAndReferencers: a stale chain-view entry, a
// dropped referencer, and a leaked arena node each fail the next audit.
func TestAuditCatchesCorruptedViewsAndReferencers(t *testing.T) {
	cfg := fig8Audited(t, twoAgent(t, 0.45), 400)
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, s *simulator)
	}{
		{"view entry", func(t *testing.T, s *simulator) {
			v := &s.views[mining.HonestPool]
			if v.top == v.lo {
				t.Skip("honest view holds a single height")
			}
			v.ring[v.top&(len(v.ring)-1)] = v.at(v.top - 1)
		}},
		{"dropped referencer", func(t *testing.T, s *simulator) {
			for i := range s.forkChildren {
				if c := &s.forkChildren[i]; c.refs != noRef {
					s.releaseRefs(*c)
					c.refs, c.last = noRef, noRef
					return
				}
			}
			t.Skip("no referenced candidate")
		}},
		{"leaked node", func(t *testing.T, s *simulator) {
			s.refNodes = append(s.refNodes, refNode{id: s.tree.Genesis(), next: noRef})
		}},
	}
	for _, tt := range corruptions {
		t.Run(tt.name, func(t *testing.T) {
			s := auditedPrefix(t, cfg, 200)
			if err := s.auditEvent(200); err != nil {
				t.Fatalf("audit failed before corruption: %v", err)
			}
			tt.corrupt(t, s)
			if err := s.auditEvent(200); !errors.Is(err, ErrAudit) {
				t.Errorf("err = %v, want ErrAudit after corrupting the %s", err, tt.name)
			}
		})
	}
}
