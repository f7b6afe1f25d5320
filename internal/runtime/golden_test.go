package runtime

import (
	"fmt"
	"math"
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/sched"
)

// goldenLossBits pins math.Float64bits of the first 20 step losses of a
// seeded training run per scheme. Any change to the tensor kernels or the
// nn layers that alters a single rounding anywhere in forward, backward,
// all-reduce or the optimizer moves these bits, so kernel optimisations
// must keep every output's accumulation order to pass. The values are for
// amd64, where Go never fuses a multiply and an add; compilers for arm64
// and other targets emit fused multiply-adds, which round differently.
var goldenLossBits = map[string][]uint64{
	"dapple": {
		0x400bec236c95e8a4, 0x400fa6690226178c, 0x400e5252c0a964b9, 0x400d5d6a4af3757d,
		0x400c2a02f077ae54, 0x400cb2b0808c2c88, 0x400cb2a1bd490c94, 0x400b7ca93145a4fc,
		0x400af71625b616c4, 0x400ae02c89e92a6a, 0x400cbc9eb50d87cd, 0x400b7d7e5a694a1b,
		0x400b8659c0b88dc8, 0x400a9e0e6fa5e88b, 0x400bb1be16c04e03, 0x400a34eacb3e2600,
		0x4009f9048da5da05, 0x400b6dbdccea9c1d, 0x400916e4e78270c0, 0x400a705e08ec1c3e,
	},
	"hanayo-w2": {
		0x400bec236c95e8a4, 0x400fa6690226178c, 0x400e5252c0a964b9, 0x400d5d6a4af3757d,
		0x400c2a02f077ae54, 0x400cb2b0808c2c88, 0x400cb2a1bd490c94, 0x400b7ca93145a4fc,
		0x400af71625b616c4, 0x400ae02c89e92a6a, 0x400cbc9eb50d87cd, 0x400b7d7e5a694a1b,
		0x400b8659c0b88dc8, 0x400a9e0e6fa5e88b, 0x400bb1be16c04e03, 0x400a34eacb3e2600,
		0x4009f9048da5da05, 0x400b6dbdccea9c1d, 0x400916e4e78270c0, 0x400a705e08ec1c3e,
	},
	"chimera": {
		0x400bec236c95e8a4, 0x400fa668ff05c199, 0x400e5252b96f18e2, 0x400d5d6a3cfaec18,
		0x400c2a02ea594574, 0x400cb2b04d591210, 0x400cb2a1acce9f0c, 0x400b7ca9adb8e913,
		0x400af7161570ccbc, 0x400ae02d35010f00, 0x400cbc9fc1facf0a, 0x400b7d7e1d4a65c6,
		0x400b865983fb46af, 0x400a9e1026c45bde, 0x400bb1bfa03f2d23, 0x400a34e5caa0005c,
		0x4009f8fc24aaef29, 0x400b6da91feb52d2, 0x400916e674009923, 0x400a7032c0da723c,
	},
	"zbh1": {
		0x400bec236c95e8a4, 0x400fa669014e6419, 0x400e5252b3fb6a34, 0x400d5d6a4cad647c,
		0x400c2a02f22753a2, 0x400cb2b07f3d37be, 0x400cb2a1b8d54aac, 0x400b7ca93ecfb206,
		0x400af7161b9c3ae6, 0x400ae02c9ec2da88, 0x400cbc9ee249eb18, 0x400b7d7e717b2a7c,
		0x400b8659c21dbb78, 0x400a9e0e9d92ca29, 0x400bb1bde66ef0fc, 0x400a34eba0a3759f,
		0x4009f905175c5898, 0x400b6dbe67b5ec15, 0x400916e55bcde7e6, 0x400a706114592457,
	},
}

// goldenRun trains nn.Tiny(14, 16, 2, 32, 8, true) for 20 Adam steps of 8
// sequences under the named schedule (P=4, B=4) and returns the loss bits.
func goldenRun(t *testing.T, scheme string, dp int) []uint64 {
	t.Helper()
	cfg := nn.Tiny(14, 16, 2, 32, 8, true)
	s, err := sched.ByName(scheme, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Schedule: s, Model: cfg, DP: dp, Seed: 12,
		NewOptimizer: func() nn.Optimizer { return nn.NewAdam(0.01) }})
	if err != nil {
		t.Fatal(err)
	}
	losses, err := eng.Train(data.NewGenerator(21, cfg.Vocab, cfg.SeqLen), 8, 20)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]uint64, len(losses))
	for i, l := range losses {
		bits[i] = math.Float64bits(l)
	}
	return bits
}

func TestLossBitsGolden(t *testing.T) {
	if goruntime.GOARCH != "amd64" {
		t.Skipf("golden loss bits are recorded for amd64, not %s", goruntime.GOARCH)
	}
	for _, tc := range []struct {
		scheme string
		dp     int
	}{{"dapple", 1}, {"hanayo-w2", 1}, {"chimera", 2}, {"zbh1", 1}} {
		t.Run(tc.scheme, func(t *testing.T) {
			got := goldenRun(t, tc.scheme, tc.dp)
			want := goldenLossBits[tc.scheme]
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					var b strings.Builder
					for _, g := range got {
						fmt.Fprintf(&b, "%#016x, ", g)
					}
					t.Fatalf("step %d: loss %v (bits %#016x) differs from golden; this run's bits: {%s}",
						i, math.Float64frombits(got[i]), got[i], b.String())
				}
			}
		})
	}
}
