package itspace

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func space(sizes ...int64) Space {
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	s := make(Space, len(sizes))
	for i, sz := range sizes {
		s[i] = Dim{Name: names[i], Size: sz}
	}
	return s
}

func TestSpacePoints(t *testing.T) {
	s := space(4, 8, 2)
	if got := s.Points(); got != 64 {
		t.Fatalf("Points() = %v, want 64", got)
	}
}

func TestSpaceDimIndex(t *testing.T) {
	s := Space{{Name: "b", Size: 128}, {Name: "n", Size: 4096}, {Name: "c", Size: 4096}}
	if got := s.DimIndex("n"); got != 1 {
		t.Fatalf("DimIndex(n) = %d, want 1", got)
	}
	if got := s.DimIndex("zz"); got != -1 {
		t.Fatalf("DimIndex(zz) = %d, want -1", got)
	}
}

func TestSpaceNames(t *testing.T) {
	s := Space{{Name: "b", Size: 1}, {Name: "n", Size: 1}, {Name: "c", Size: 1}}
	if got := s.Names(); got != "bnc" {
		t.Fatalf("Names() = %q, want %q", got, "bnc")
	}
}

func TestSpaceValidate(t *testing.T) {
	if err := space(4, 8).Validate(); err != nil {
		t.Fatalf("valid space rejected: %v", err)
	}
	if err := (Space{}).Validate(); err == nil {
		t.Fatal("empty space accepted")
	}
	if err := (Space{{Name: "a", Size: 0}}).Validate(); err == nil {
		t.Fatal("zero-size dim accepted")
	}
	if err := (Space{{Name: "", Size: 3}}).Validate(); err == nil {
		t.Fatal("unnamed dim accepted")
	}
}

func TestConfigDegreeAndSplitDims(t *testing.T) {
	c := Config{1, 4, 2}
	if c.Degree() != 8 {
		t.Fatalf("Degree = %d, want 8", c.Degree())
	}
	if c.SplitDims() != 2 {
		t.Fatalf("SplitDims = %d, want 2", c.SplitDims())
	}
}

func TestConfigString(t *testing.T) {
	if got := (Config{1, 4, 2}).String(); got != "(1, 4, 2)" {
		t.Fatalf("String = %q", got)
	}
}

func TestConfigEqualClone(t *testing.T) {
	c := Config{2, 4}
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	d[0] = 1
	if c.Equal(d) {
		t.Fatal("mutated clone still equal")
	}
	if c.Equal(Config{2}) {
		t.Fatal("different arity equal")
	}
}

func TestConfigValidFor(t *testing.T) {
	s := space(128, 4096, 4096)
	cases := []struct {
		cfg Config
		p   int
		ok  bool
	}{
		{Config{1, 4, 2}, 8, true},
		{Config{8, 1, 1}, 8, true},
		{Config{1, 4, 4}, 8, false},     // degree 16 > 8
		{Config{3, 1, 1}, 8, false},     // 3 does not divide 8... (and divides 128? no: 128%3 != 0)
		{Config{1, 1}, 8, false},        // arity
		{Config{0, 1, 1}, 8, false},     // < 1
		{Config{1, 2, 1}, 8, true},      // degree 2 divides 8
		{Config{256, 1, 1}, 512, false}, // exceeds extent 128
	}
	for i, tc := range cases {
		err := tc.cfg.ValidFor(s, tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("case %d: cfg=%v p=%d err=%v want ok=%v", i, tc.cfg, tc.p, err, tc.ok)
		}
	}
}

func TestEnumerateGEMMCount(t *testing.T) {
	// 3-D GEMM space with power-of-two friendly extents on p=8: the number
	// of (c1,c2,c3) power-of-two tuples with product ≤ 8 distributing k ≤ 3
	// twos over 3 dims is Σ_{k=0..3} C(k+2,2) = 1+3+6+10 = 20.
	s := space(128, 4096, 4096)
	cfgs := Enumerate(s, 8, EnumPolicy{})
	if len(cfgs) != 20 {
		t.Fatalf("got %d configs, want 20", len(cfgs))
	}
}

func TestEnumerateIndivisibleDims(t *testing.T) {
	// Conv-like 7-D space where spatial (55) and filter (11) dims are odd:
	// only b=128, c=96 (div by up to 32), n=96 can split. Same count as a
	// 3-dim enumeration over those dims.
	conv := Space{
		{Name: "b", Size: 128}, {Name: "c", Size: 96},
		{Name: "h", Size: 55}, {Name: "w", Size: 55},
		{Name: "n", Size: 96}, {Name: "r", Size: 11}, {Name: "s", Size: 11},
	}
	got := Enumerate(conv, 8, EnumPolicy{})
	want := Enumerate(space(128, 96, 96), 8, EnumPolicy{})
	if len(got) != len(want) {
		t.Fatalf("conv configs = %d, 3-dim equivalent = %d", len(got), len(want))
	}
	for _, c := range got {
		for _, dim := range []int{2, 3, 5, 6} {
			if c[dim] != 1 {
				t.Fatalf("indivisible dim %d split in %v", dim, c)
			}
		}
	}
}

func TestEnumerateAllValid(t *testing.T) {
	s := space(128, 96, 4096)
	for _, p := range []int{4, 8, 16, 32, 64} {
		for _, c := range Enumerate(s, p, EnumPolicy{}) {
			if err := c.ValidFor(s, p); err != nil {
				t.Fatalf("p=%d: invalid config %v: %v", p, c, err)
			}
		}
	}
}

func TestEnumerateMaxSplitDims(t *testing.T) {
	s := space(64, 64, 64, 64)
	for _, c := range Enumerate(s, 16, EnumPolicy{MaxSplitDims: 2}) {
		if c.SplitDims() > 2 {
			t.Fatalf("config %v splits more than 2 dims", c)
		}
	}
	all := Enumerate(s, 16, EnumPolicy{})
	capped := Enumerate(s, 16, EnumPolicy{MaxSplitDims: 2})
	if len(capped) >= len(all) {
		t.Fatalf("cap did not reduce: %d vs %d", len(capped), len(all))
	}
}

func TestEnumerateRequireFullDegree(t *testing.T) {
	s := space(64, 64)
	for _, c := range Enumerate(s, 8, EnumPolicy{RequireFullDegree: true}) {
		if c.Degree() != 8 {
			t.Fatalf("config %v degree %d != 8", c, c.Degree())
		}
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	s := space(128, 96, 4096)
	a := Enumerate(s, 16, EnumPolicy{})
	b := Enumerate(s, 16, EnumPolicy{})
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEnumerateIncludesIdentityAndDP(t *testing.T) {
	s := space(128, 4096, 4096)
	cfgs := Enumerate(s, 8, EnumPolicy{})
	var hasIdentity, hasDP bool
	for _, c := range cfgs {
		if c.Equal(Config{1, 1, 1}) {
			hasIdentity = true
		}
		if c.Equal(Config{8, 1, 1}) {
			hasDP = true
		}
	}
	if !hasIdentity || !hasDP {
		t.Fatalf("identity=%v dataParallel=%v, want both", hasIdentity, hasDP)
	}
}

func TestDataParallelConfig(t *testing.T) {
	s := space(128, 4096, 4096)
	dp := DataParallel(s, 32, "a")
	if !dp.Equal(Config{32, 1, 1}) {
		t.Fatalf("DataParallel = %v", dp)
	}
	// Batch extent smaller than p: largest valid factor wins.
	s2 := Space{{Name: "b", Size: 16}, {Name: "n", Size: 64}}
	dp2 := DataParallel(s2, 64, "b")
	if !dp2.Equal(Config{16, 1}) {
		t.Fatalf("DataParallel capped = %v", dp2)
	}
	// Missing batch dim: all ones.
	dp3 := DataParallel(s2, 8, "zz")
	if !dp3.Equal(Config{1, 1}) {
		t.Fatalf("DataParallel no-batch = %v", dp3)
	}
}

// Property: every enumerated config is valid, and every config the validator
// accepts over the power-of-two candidate grid is enumerated.
func TestEnumerateCompleteQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nd := 1 + rng.Intn(4)
		s := make(Space, nd)
		for i := range s {
			s[i] = Dim{Name: string(rune('a' + i)), Size: int64(1 << rng.Intn(8))}
		}
		p := 1 << (1 + rng.Intn(5))
		got := Enumerate(s, p, EnumPolicy{})
		seen := map[string]bool{}
		for _, c := range got {
			if err := c.ValidFor(s, p); err != nil {
				return false
			}
			seen[c.String()] = true
		}
		if len(seen) != len(got) {
			return false // duplicates
		}
		// Exhaustively re-enumerate over per-dim divisor candidates.
		count := 0
		var rec func(dim, deg int, cur Config)
		rec = func(dim, deg int, cur Config) {
			if dim == nd {
				count++
				return
			}
			for c := 1; c <= p; c++ {
				if p%c == 0 && s[dim].Size%int64(c) == 0 && deg*c <= p {
					cur[dim] = c
					rec(dim+1, deg*c, cur)
				}
			}
		}
		rec(0, 1, make(Config, nd))
		return count == len(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// enumerateBySort is Enumerate's earlier definition, kept as its oracle:
// every configuration the recursion reaches, comparison-sorted by split
// count, then lexicographically.
func enumerateBySort(s Space, p int, pol EnumPolicy) []Config {
	if p < 1 {
		return nil
	}
	perDim := make([][]int, len(s))
	for i, d := range s {
		perDim[i] = divisorSplits(d.Size, p)
	}
	var out []Config
	cur := make(Config, len(s))
	var rec func(dim, degree int)
	rec = func(dim, degree int) {
		if dim == len(s) {
			if pol.RequireFullDegree && degree != p {
				return
			}
			if pol.MaxSplitDims > 0 && cur.SplitDims() > pol.MaxSplitDims {
				return
			}
			out = append(out, cur.Clone())
			return
		}
		for _, c := range perDim[dim] {
			if degree*c > p {
				break
			}
			cur[dim] = c
			rec(dim+1, degree*c)
		}
		cur[dim] = 1
	}
	rec(0, 1)
	slices.SortFunc(out, func(a, b Config) int {
		return cmp.Or(cmp.Compare(a.SplitDims(), b.SplitDims()), slices.Compare(a, b))
	})
	return out
}

// Enumerate's bucketed order is the comparison sort's, configuration for
// configuration, on random spaces at every p from 1 to 128 under both policy
// knobs.
func TestEnumerateMatchesSortedDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for p := 1; p <= 128; p++ {
		for range 4 {
			s := make(Space, 1+rng.Intn(5))
			for i := range s {
				// Powers of two, small odd factors and primes, so some dims
				// admit many factors and some only 1.
				s[i] = Dim{Name: string(rune('a' + i)), Size: int64(1<<rng.Intn(8)) * []int64{1, 1, 3, 5, 7}[rng.Intn(5)]}
			}
			for _, pol := range []EnumPolicy{{}, {MaxSplitDims: 1 + rng.Intn(3)}, {RequireFullDegree: true}, {MaxSplitDims: 2, RequireFullDegree: true}} {
				got, want := Enumerate(s, p, pol), enumerateBySort(s, p, pol)
				if !slices.EqualFunc(got, want, Config.Equal) {
					t.Fatalf("p=%d %v %+v: Enumerate gave %v, the sorted definition %v", p, s, pol, got, want)
				}
			}
		}
	}
}

// Each configuration is its own allocation, so a strategy that keeps one
// configuration pins no array of the others.
func TestEnumerateAllocatesEachConfig(t *testing.T) {
	s := space(128, 96, 4096, 64)
	n := len(Enumerate(s, 32, EnumPolicy{}))
	if allocs := testing.AllocsPerRun(10, func() { Enumerate(s, 32, EnumPolicy{}) }); allocs < float64(n) {
		t.Fatalf("%v allocations for %d configurations: configurations share an array", allocs, n)
	}
}
