package cluster

import (
	"errors"
	"testing"

	"repro/internal/expr"
	"repro/internal/manager"
)

// TestGatewayRequestMany groups a mixed burst — single-shard actions for
// three different shards plus a cross-shard action and a denial — and
// checks every slot settles with the right outcome.
func TestGatewayRequestMany(t *testing.T) {
	gw, shards := startCluster(t, "(a1 - b1)* @ (a2 - b2)* @ (a3 - b3)* @ (b1 - b3)*", false, 0)
	burst := []expr.Action{
		act("a1"), act("a2"), act("a3"), // one frame per shard, concurrently
		act("b2"),       // same shard as a2, ordered after it in the frame
		act("b1"),       // cross-shard: two-phase across shards 0 and 3
		act("a1"),       // denied in its frame: the first a1 already ran, b1 is due
		act("unrouted"), // in no shard's alphabet
	}
	errs := gw.RequestMany(bg, burst)
	for i := 0; i <= 4; i++ {
		if errs[i] != nil {
			t.Fatalf("slot %d (%s): %v", i, burst[i], errs[i])
		}
	}
	if !errors.Is(errs[5], manager.ErrDenied) {
		t.Fatalf("slot 5 = %v, want ErrDenied", errs[5])
	}
	if !errors.Is(errs[6], manager.ErrDenied) {
		t.Fatalf("slot 6 = %v, want ErrDenied", errs[6])
	}
	wantSteps := []int{2, 2, 1, 1} // a1, b1 | a2, b2 | a3 | b1
	for i, sh := range shards {
		if got := sh.m.Steps(); got != wantSteps[i] {
			t.Fatalf("shard %d steps = %d, want %d", i, got, wantSteps[i])
		}
	}
}

// TestGatewayRequestManyBurstThroughput pushes a large disjoint burst and
// verifies exactly-once application across shards on the pipelined path.
func TestGatewayRequestManyBurstThroughput(t *testing.T) {
	gw, shards := startCluster(t, "(a1 | b1)* @ (a2 | b2)* @ (a3 | b3)*", false, 0)
	const rounds, perShard = 4, 32
	names := []string{"a1", "a2", "a3"}
	for r := 0; r < rounds; r++ {
		var burst []expr.Action
		for i := 0; i < perShard; i++ {
			for _, n := range names {
				burst = append(burst, act(n))
			}
		}
		for i, err := range gw.RequestMany(bg, burst) {
			if err != nil {
				t.Fatalf("round %d slot %d: %v", r, i, err)
			}
		}
	}
	for i, sh := range shards {
		if got := sh.m.Steps(); got != rounds*perShard {
			t.Fatalf("shard %d steps = %d, want %d", i, got, rounds*perShard)
		}
	}
}
