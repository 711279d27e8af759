package geom

import (
	"errors"
	"math"
)

// ErrAlignMismatch is returned by AlignRigid when the two point sets have
// different or insufficient sizes.
var ErrAlignMismatch = errors.New("geom: point sets must have equal length >= 3")

// RigidTransform maps points by p -> R·(p-centroidA) + centroidB, i.e. a
// rotation (possibly composed with a reflection) about the source centroid
// followed by a translation onto the target centroid.
type RigidTransform struct {
	R         [3][3]float64 // rotation (orthonormal) matrix, row-major
	CentroidA Vec3          // source centroid
	CentroidB Vec3          // target centroid
	Reflected bool          // true when R includes a reflection
}

// Apply maps a single point through the transform.
func (t RigidTransform) Apply(p Vec3) Vec3 {
	d := p.Sub(t.CentroidA)
	return Vec3{
		X: t.R[0][0]*d.X + t.R[0][1]*d.Y + t.R[0][2]*d.Z,
		Y: t.R[1][0]*d.X + t.R[1][1]*d.Y + t.R[1][2]*d.Z,
		Z: t.R[2][0]*d.X + t.R[2][1]*d.Y + t.R[2][2]*d.Z,
	}.Add(t.CentroidB)
}

// ApplyAll maps every point through the transform, returning a new slice.
func (t RigidTransform) ApplyAll(pts []Vec3) []Vec3 {
	out := make([]Vec3, len(pts))
	for i, p := range pts {
		out[i] = t.Apply(p)
	}
	return out
}

// AlignRigid computes the rigid transform (rotation + translation, with a
// reflection permitted) that best maps point set a onto point set b in the
// least-squares sense, using Horn's closed-form quaternion method. It
// returns the transform and the residual RMSD after alignment.
//
// Local MDS coordinates are only determined up to a rigid motion and
// reflection; this is the canonical way to compare them against ground
// truth.
func AlignRigid(a, b []Vec3) (RigidTransform, float64, error) {
	if len(a) != len(b) || len(a) < 3 {
		return RigidTransform{}, 0, ErrAlignMismatch
	}
	ca := Centroid(a)
	cb := Centroid(b)

	// Cross-covariance of the centered sets.
	var s [3][3]float64
	for i := range a {
		da := a[i].Sub(ca)
		db := b[i].Sub(cb)
		av := [3]float64{da.X, da.Y, da.Z}
		bv := [3]float64{db.X, db.Y, db.Z}
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				s[r][c] += av[r] * bv[c]
			}
		}
	}

	best, reflected, reflOK, err := hornRotations(s)
	if err != nil {
		return RigidTransform{}, 0, err
	}

	// Keep the reflected solution if it fits better: MDS output has an
	// arbitrary handedness, so a pure rotation may be the wrong mirror
	// image.
	t := RigidTransform{R: best, CentroidA: ca, CentroidB: cb}
	rmsd := alignRMSD(t, a, b)
	if reflOK {
		// Compose the mirror (negate source) with the reflected-fit
		// rotation: R' maps -x onto b, so R'' = R'·(-I).
		var rr [3][3]float64
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				rr[r][c] = -reflected[r][c]
			}
		}
		tr := RigidTransform{R: rr, CentroidA: ca, CentroidB: cb, Reflected: true}
		if r2 := alignRMSD(tr, a, b); r2 < rmsd {
			t, rmsd = tr, r2
		}
	}
	return t, rmsd, nil
}

func alignRMSD(t RigidTransform, a, b []Vec3) float64 {
	var sum float64
	for i := range a {
		sum += t.Apply(a[i]).Dist2(b[i])
	}
	return math.Sqrt(sum / float64(len(a)))
}

// hornRotations returns hornRotation(s) and hornRotation(−s), bit for
// bit, from one eigensolve where it can: Horn's matrix for −s is exactly
// −N, whose top eigenvector is N's bottom one whenever the solve is odd
// (symmetricEigen4). Otherwise −s is solved on its own; reflOK is false
// when that solve fails.
func hornRotations(s [3][3]float64) (rot, refl [3][3]float64, reflOK bool, err error) {
	n := hornMatrix(s)
	top, bottom, haveBottom, ok := symmetricEigen4(&n)
	if !ok {
		return rot, refl, false, ErrNoConvergence
	}
	if haveBottom {
		return quaternionRotation(top), quaternionRotation(bottom), true, nil
	}
	var sNeg [3][3]float64
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			sNeg[r][c] = -s[r][c]
		}
	}
	refl, errR := hornRotation(sNeg)
	return quaternionRotation(top), refl, errR == nil, nil
}

// hornRotation returns the rotation maximizing trace(R·S) via the largest
// eigenvector of Horn's symmetric 4x4 quaternion matrix.
func hornRotation(s [3][3]float64) ([3][3]float64, error) {
	n := hornMatrix(s)
	q, _, _, ok := symmetricEigen4(&n)
	if !ok {
		return [3][3]float64{}, ErrNoConvergence
	}
	return quaternionRotation(q), nil
}

// hornMatrix is Horn's symmetric 4x4 quaternion matrix of the
// cross-covariance s. Every entry is a signed sum of s's entries, so
// hornMatrix(−s) is exactly −hornMatrix(s).
func hornMatrix(s [3][3]float64) [4][4]float64 {
	return [4][4]float64{
		{s[0][0] + s[1][1] + s[2][2], s[1][2] - s[2][1], s[2][0] - s[0][2], s[0][1] - s[1][0]},
		{s[1][2] - s[2][1], s[0][0] - s[1][1] - s[2][2], s[0][1] + s[1][0], s[2][0] + s[0][2]},
		{s[2][0] - s[0][2], s[0][1] + s[1][0], -s[0][0] + s[1][1] - s[2][2], s[1][2] + s[2][1]},
		{s[0][1] - s[1][0], s[2][0] + s[0][2], s[1][2] + s[2][1], -s[0][0] - s[1][1] + s[2][2]},
	}
}

// quaternionRotation is the rotation matrix of the unit quaternion
// q = (w, x, y, z). It is even in q, so q and −q give the same bits.
func quaternionRotation(q [4]float64) [3][3]float64 {
	w, x, y, z := q[0], q[1], q[2], q[3]
	return [3][3]float64{
		{w*w + x*x - y*y - z*z, 2 * (x*y - w*z), 2 * (x*z + w*y)},
		{2 * (x*y + w*z), w*w - x*x + y*y - z*z, 2 * (y*z - w*x)},
		{2 * (x*z - w*y), 2 * (y*z + w*x), w*w - x*x - y*y + z*z},
	}
}
