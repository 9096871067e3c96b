package sim

// This file is the wide-lane evaluation kernel: the same flattened SoA
// opcode program as program.go, evaluated over [W]uint64 vector words
// instead of a single uint64. One word of W machine words carries
// 64*W bit-parallel lanes — lane 0 is the fault-free machine, lanes
// 1..BatchLanes(W) each carry one injected stuck-at fault — so a W=4
// batch simulates 255 faults per pattern where a one-word batch packs
// 63. The element loops all run a constant trip count known at
// instantiation time, so the compiler emits straight-line word ops the
// hardware can schedule (and vectorize where it auto-vectorizes); the
// interpreter overhead per gate (opcode dispatch, operand index loads,
// bounds checks) is paid once per W words instead of once per word,
// which is where the per-lane throughput scales.
//
// Every fault machine in the package is a LaneEngine over this kernel; a
// one-word engine is the 63-fault (or, for the self-test, single-fault)
// case. The fault-free scalar eval in program.go stays as Evaluator's
// kernel: Evaluator and the VCD writer view state as []uint64, which a
// generic function cannot reinterpret as [][1]uint64 without unsafe.

// LanesPerWord is the number of fault lanes a single uint64 word carries:
// 63, because lane 0 of the first word is reserved for the fault-free
// machine.
const LanesPerWord = 63

// MaxLaneWords is the widest supported lane vector, in 64-bit words.
const MaxLaneWords = 8

// LaneWordSizes lists the supported lane-vector widths in words. Power-of-
// two widths keep the generic kernel instantiations aligned with the
// hardware vector registers (1 word scalar, 2 = 128-bit, 4 = 256-bit AVX2,
// 8 = 512-bit).
var LaneWordSizes = []int{1, 2, 4, 8}

// ValidLaneWords reports whether words is a supported lane-vector width.
func ValidLaneWords(words int) bool {
	switch words {
	case 1, 2, 4, 8:
		return true
	}
	return false
}

// BatchLanes returns the number of fault lanes a words-wide batch carries:
// 64*words - 1 (lane 0 is the fault-free machine).
func BatchLanes(words int) int { return 64*words - 1 }

// FitLaneWords returns the narrowest supported width (capped at maxWords)
// whose batch capacity holds n faults. Packing a partial final batch at
// the narrowest width that fits avoids cycling empty words: detection
// verdicts are width-invariant (see LaneEngine), so the choice is pure
// throughput.
func FitLaneWords(n, maxWords int) int {
	for _, w := range LaneWordSizes {
		if w >= maxWords {
			break
		}
		if n <= BatchLanes(w) {
			return w
		}
	}
	return maxWords
}

// lanevec constrains the generic kernels to the supported lane-vector
// shapes. Array types keep the element count a compile-time constant per
// instantiation, which is what lets the element loops unroll.
type lanevec interface {
	[1]uint64 | [2]uint64 | [4]uint64 | [8]uint64
}

// The element-wise ops take and return vectors by value: arrays are
// values in Go, so the compiler keeps them in registers across the small
// constant-count loops.

func vNot[W lanevec](x W) W {
	for j := 0; j < len(x); j++ {
		x[j] = ^x[j]
	}
	return x
}

func vAnd[W lanevec](x, y W) W {
	for j := 0; j < len(x); j++ {
		x[j] &= y[j]
	}
	return x
}

func vNand[W lanevec](x, y W) W {
	for j := 0; j < len(x); j++ {
		x[j] = ^(x[j] & y[j])
	}
	return x
}

func vOr[W lanevec](x, y W) W {
	for j := 0; j < len(x); j++ {
		x[j] |= y[j]
	}
	return x
}

func vNor[W lanevec](x, y W) W {
	for j := 0; j < len(x); j++ {
		x[j] = ^(x[j] | y[j])
	}
	return x
}

func vXor[W lanevec](x, y W) W {
	for j := 0; j < len(x); j++ {
		x[j] ^= y[j]
	}
	return x
}

func vXnor[W lanevec](x, y W) W {
	for j := 0; j < len(x); j++ {
		x[j] = ^(x[j] ^ y[j])
	}
	return x
}

// vSplat broadcasts one word to every element.
func vSplat[W lanevec](x uint64) (w W) {
	for j := 0; j < len(w); j++ {
		w[j] = x
	}
	return w
}

// vOnes is the all-ones vector (the AND-reduction identity).
func vOnes[W lanevec]() W { return vSplat[W](^uint64(0)) }

// evalFaultyVec is the wide fault-simulation hot loop. It dispatches to
// the hand-unrolled width specializations in wide_unroll.go: the type
// switch resolves against the instantiation's dynamic type once per call
// (per clock cycle), which is noise next to the gate loop it guards, and
// the interface conversions do not escape, so no allocation happens here.
// evalFaultyVecGeneric below is the readable single-source reference the
// specializations are pinned against.
func evalFaultyVec[W lanevec](p *program, v, force0, force1 []W) {
	switch vv := any(v).(type) {
	case [][1]uint64:
		evalFaulty1(p, vv, any(force0).([][1]uint64), any(force1).([][1]uint64))
	case [][2]uint64:
		evalFaulty2(p, vv, any(force0).([][2]uint64), any(force1).([][2]uint64))
	case [][4]uint64:
		evalFaulty4(p, vv, any(force0).([][4]uint64), any(force1).([][4]uint64))
	case [][8]uint64:
		evalFaulty8(p, vv, any(force0).([][8]uint64), any(force1).([][8]uint64))
	}
}

// evalFaultyVecGeneric is the readable single-source body of the wide
// fault kernel: every destination write folds the signal's force masks
// in. It is semantically authoritative but slow — gc does not unroll the
// constant-trip element loops and spills the dynamically-indexed vector
// locals to the stack — so the hot path runs the unrolled specializations
// and the differential tests hold all of them to this body's behavior.
func evalFaultyVecGeneric[W lanevec](p *program, v, force0, force1 []W) {
	kind, out, a, b := p.kind, p.out, p.a, p.b
	for i, k := range kind {
		var r W
		switch k {
		case opBuf:
			r = v[a[i]]
		case opNot:
			r = vNot(v[a[i]])
		case opAnd2:
			r = vAnd(v[a[i]], v[b[i]])
		case opNand2:
			r = vNand(v[a[i]], v[b[i]])
		case opOr2:
			r = vOr(v[a[i]], v[b[i]])
		case opNor2:
			r = vNor(v[a[i]], v[b[i]])
		case opXor2:
			r = vXor(v[a[i]], v[b[i]])
		case opXnor2:
			r = vXnor(v[a[i]], v[b[i]])
		default:
			r = wideVec(p, k, i, v)
		}
		o := out[i]
		f0, f1 := force0[o], force1[o]
		for j := 0; j < len(r); j++ {
			r[j] = (r[j] &^ f0[j]) | f1[j]
		}
		v[o] = r
	}
}

// wideVec evaluates the uncommon opcodes, MUX and gates with fanin >= 3,
// mirroring program.wide.
func wideVec[W lanevec](p *program, k opKind, i int, v []W) W {
	switch k {
	case opMux:
		m := p.arena[p.a[i] : p.a[i]+3 : p.a[i]+3]
		sel := v[m[0]]
		d0, d1 := v[m[1]], v[m[2]]
		for j := 0; j < len(sel); j++ {
			d0[j] = (d0[j] &^ sel[j]) | (d1[j] & sel[j])
		}
		return d0
	case opAndN, opNandN:
		r := vOnes[W]()
		for _, f := range p.arena[p.a[i]:p.b[i]] {
			r = vAnd(r, v[f])
		}
		if k == opNandN {
			return vNot(r)
		}
		return r
	case opOrN, opNorN:
		var r W
		for _, f := range p.arena[p.a[i]:p.b[i]] {
			r = vOr(r, v[f])
		}
		if k == opNorN {
			return vNot(r)
		}
		return r
	default: // opXorN, opXnorN
		var r W
		for _, f := range p.arena[p.a[i]:p.b[i]] {
			r = vXor(r, v[f])
		}
		if k == opXnorN {
			return vNot(r)
		}
		return r
	}
}
