package geom

import (
	"math"
	"math/rand"
	"testing"
)

// rotateZ returns p rotated by angle about the z axis.
func rotateZ(p Vec3, angle float64) Vec3 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Vec3{X: c*p.X - s*p.Y, Y: s*p.X + c*p.Y, Z: p.Z}
}

func randomCloud(rng *rand.Rand, n int) []Vec3 {
	pts := make([]Vec3, n)
	for i := range pts {
		pts[i] = boundedVec(rng)
	}
	return pts
}

func TestAlignRigidIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomCloud(rng, 10)
	tr, rmsd, err := AlignRigid(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if rmsd > 1e-9 {
		t.Errorf("identity alignment rmsd = %v", rmsd)
	}
	for _, p := range a {
		if !tr.Apply(p).ApproxEqual(p, 1e-9) {
			t.Errorf("identity transform moved %v to %v", p, tr.Apply(p))
		}
	}
}

func TestAlignRigidRotationTranslation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		a := randomCloud(rng, 4+rng.Intn(20))
		angle := rng.Float64() * 2 * math.Pi
		shift := boundedVec(rng)
		b := make([]Vec3, len(a))
		for i, p := range a {
			b[i] = rotateZ(p, angle).Add(shift)
		}
		_, rmsd, err := AlignRigid(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if rmsd > 1e-8 {
			t.Fatalf("trial %d: rigid copy rmsd = %v", trial, rmsd)
		}
	}
}

func TestAlignRigidReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		a := randomCloud(rng, 4+rng.Intn(20))
		b := make([]Vec3, len(a))
		for i, p := range a {
			// Mirror through the xy plane, then rotate and shift.
			m := Vec3{p.X, p.Y, -p.Z}
			b[i] = rotateZ(m, 1.1).Add(V(3, -2, 7))
		}
		tr, rmsd, err := AlignRigid(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if rmsd > 1e-8 {
			t.Fatalf("trial %d: reflected copy rmsd = %v", trial, rmsd)
		}
		if !tr.Reflected {
			t.Fatalf("trial %d: reflection not detected", trial)
		}
	}
}

func TestAlignRigidRejectsBadInput(t *testing.T) {
	a := []Vec3{V(0, 0, 0), V(1, 0, 0)}
	if _, _, err := AlignRigid(a, a); err != ErrAlignMismatch {
		t.Errorf("short input: err = %v", err)
	}
	b := []Vec3{V(0, 0, 0), V(1, 0, 0), V(0, 1, 0)}
	if _, _, err := AlignRigid(b, b[:2]); err != ErrAlignMismatch {
		t.Errorf("length mismatch: err = %v", err)
	}
}

func TestAlignRigidNoisyRMSDBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomCloud(rng, 30)
	const noise = 0.01
	b := make([]Vec3, len(a))
	for i, p := range a {
		jitter := RandomUnitVector(rng).Scale(noise * rng.Float64())
		b[i] = rotateZ(p, 0.7).Add(V(1, 2, 3)).Add(jitter)
	}
	_, rmsd, err := AlignRigid(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rmsd > noise {
		t.Errorf("rmsd = %v exceeds injected noise %v", rmsd, noise)
	}
	if rmsd == 0 {
		t.Error("rmsd exactly zero with noise injected")
	}
}

func TestRigidTransformApplyAll(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomCloud(rng, 8)
	b := make([]Vec3, len(a))
	for i, p := range a {
		b[i] = rotateZ(p, 0.5).Add(V(1, 1, 1))
	}
	tr, _, err := AlignRigid(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mapped := tr.ApplyAll(a)
	if len(mapped) != len(a) {
		t.Fatalf("ApplyAll length %d", len(mapped))
	}
	for i := range mapped {
		if !mapped[i].ApproxEqual(b[i], 1e-8) {
			t.Errorf("point %d mapped to %v, want %v", i, mapped[i], b[i])
		}
	}
}

// The rotation returned must be orthonormal (RᵀR = I).
func TestAlignRigidRotationOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomCloud(rng, 12)
	b := randomCloud(rng, 12) // unrelated clouds: still must give a valid rotation
	tr, _, err := AlignRigid(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var dot float64
			for k := 0; k < 3; k++ {
				dot += tr.R[k][i] * tr.R[k][j]
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if !almostEqual(dot, want, 1e-8) {
				t.Fatalf("RᵀR[%d][%d] = %v, want %v", i, j, dot, want)
			}
		}
	}
}

// AlignRigid sits on the two-hop stitching hot path (one call per
// registered frame pair); with the stack-allocated Horn eigensolver it must
// not allocate at all.
func TestAlignRigidAllocsZero(t *testing.T) {
	a := []Vec3{V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(0, 0, 1), V(1, 1, 0)}
	b := []Vec3{V(1, 2, 3), V(1, 3, 3), V(0, 2, 3), V(1, 2, 4), V(0, 3, 3)}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := AlignRigid(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AlignRigid allocates %v objects per call, want 0", allocs)
	}
}

// TestHornRotationsMatchTwoSolves: the one-eigensolve registration
// (hornRotations) returns bit for bit the rotations of two separate Horn
// solves, hornRotation(S) and hornRotation(−S), on inputs built to hit the
// exact zeros where the solve stops being odd in its input: every
// {−1,0,1}³ˣ³ matrix, small integer and half-integer matrices, planar,
// rank-1, symmetric and antisymmetric ones, and generic Gaussian matrices —
// all of which must take the one-solve path.
func TestHornRotationsMatchTwoSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var oneSolve, total int
	check := func(kind string, s [3][3]float64, mustOneSolve bool) {
		t.Helper()
		total++
		n := hornMatrix(s)
		_, _, one, _ := symmetricEigen4(&n)
		if one {
			oneSolve++
		} else if mustOneSolve {
			t.Fatalf("%s %v: generic input took the two-solve path", kind, s)
		}
		rot, refl, reflOK, err := hornRotations(s)
		wantRot, wantErr := hornRotation(s)
		var sNeg [3][3]float64
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				sNeg[r][c] = -s[r][c]
			}
		}
		wantRefl, wantErrR := hornRotation(sNeg)
		if (err != nil) != (wantErr != nil) || reflOK != (wantErrR == nil) {
			t.Fatalf("%s %v: error %v, reflected ok %v; two solves (%v, %v)", kind, s, err, reflOK, wantErr, wantErrR)
		}
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				if math.Float64bits(rot[r][c]) != math.Float64bits(wantRot[r][c]) {
					t.Fatalf("%s %v (one solve %v): rotation[%d][%d] = %v, two solves %v", kind, s, one, r, c, rot[r][c], wantRot[r][c])
				}
				if math.Float64bits(refl[r][c]) != math.Float64bits(wantRefl[r][c]) {
					t.Fatalf("%s %v (one solve %v): reflected[%d][%d] = %v, two solves %v", kind, s, one, r, c, refl[r][c], wantRefl[r][c])
				}
			}
		}
	}
	fill := func(f func(r, c int) float64) (s [3][3]float64) {
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				s[r][c] = f(r, c)
			}
		}
		return s
	}

	for code := 0; code < 19683; code++ { // 3^9
		k := code
		check("ternary", fill(func(int, int) float64 { v := float64(k%3 - 1); k /= 3; return v }), false)
	}
	for i := 0; i < 50000; i++ {
		check("integer", fill(func(int, int) float64 { return float64(rng.Intn(7) - 3) }), false)
		check("half-integer", fill(func(int, int) float64 { return float64(rng.Intn(13)-6) / 2 }), false)
	}
	for i := 0; i < 10000; i++ {
		check("planar", fill(func(r, c int) float64 {
			if r == 2 || c == 2 {
				return 0
			}
			return rng.NormFloat64()
		}), false)
		u := [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		v := [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		check("rank-1", fill(func(r, c int) float64 { return u[r] * v[c] }), false)
		g := fill(func(int, int) float64 { return rng.NormFloat64() })
		check("symmetric", fill(func(r, c int) float64 { return g[r][c] + g[c][r] }), false)
		check("antisymmetric", fill(func(r, c int) float64 { return g[r][c] - g[c][r] }), false)
	}
	for i := 0; i < 50000; i++ {
		check("generic", fill(func(int, int) float64 { return rng.NormFloat64() }), true)
	}
	t.Logf("%d of %d inputs took the one-solve path", oneSolve, total)
}
