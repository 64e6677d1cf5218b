package cell

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Inv.String() != "INV" || DFF.String() != "DFF" || LvlShift.String() != "LVLSHIFT" {
		t.Error("kind names wrong")
	}
	if Kind(200).String() != "KIND(200)" {
		t.Errorf("out-of-range kind: %s", Kind(200).String())
	}
}

func TestLibraryComplete(t *testing.T) {
	lib := Default65nm()
	for _, k := range Kinds() {
		c := lib.Cell(k)
		if c.Kind != k {
			t.Errorf("cell %v has kind %v", k, c.Kind)
		}
		if c.AreaUM2 <= 0 {
			t.Errorf("cell %v has non-positive area", k)
		}
		if c.NumInputs > 0 && c.InputCapFF <= 0 {
			t.Errorf("cell %v has no input cap", k)
		}
		if c.LeakNW[DomainLow] <= 0 {
			t.Errorf("cell %v has no leakage", k)
		}
		if !c.IsTie() && c.LeakNW[DomainHigh] < c.LeakNW[DomainLow] {
			t.Errorf("cell %v leaks less at high Vdd", k)
		}
	}
	if len(lib.Cells()) != len(Kinds()) {
		t.Errorf("Cells() returned %d, want %d", len(lib.Cells()), len(Kinds()))
	}
}

func TestLibraryPanicsOnInvalidKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Default65nm().Cell(Invalid)
}

func TestEvalTruthTables(t *testing.T) {
	lib := Default65nm()
	type tc struct {
		k    Kind
		in   []bool
		want bool
	}
	cases := []tc{
		{Inv, []bool{true}, false},
		{Inv, []bool{false}, true},
		{Buf, []bool{true}, true},
		{LvlShift, []bool{false}, false},
		{Nand2, []bool{true, true}, false},
		{Nand2, []bool{true, false}, true},
		{Nand3, []bool{true, true, true}, false},
		{Nand3, []bool{true, true, false}, true},
		{Nand4, []bool{true, true, true, true}, false},
		{Nand4, []bool{false, true, true, true}, true},
		{Nor2, []bool{false, false}, true},
		{Nor2, []bool{true, false}, false},
		{Nor3, []bool{false, false, false}, true},
		{Nor3, []bool{false, true, false}, false},
		{And2, []bool{true, true}, true},
		{And2, []bool{true, false}, false},
		{And3, []bool{true, true, true}, true},
		{Or2, []bool{false, false}, false},
		{Or2, []bool{false, true}, true},
		{Or3, []bool{false, false, true}, true},
		{Xor2, []bool{true, false}, true},
		{Xor2, []bool{true, true}, false},
		{Xnor2, []bool{true, true}, true},
		{Xnor2, []bool{true, false}, false},
		{Aoi21, []bool{true, true, false}, false},
		{Aoi21, []bool{false, true, false}, true},
		{Aoi21, []bool{false, false, true}, false},
		{Oai21, []bool{false, false, true}, true},
		{Oai21, []bool{true, false, true}, false},
		{Oai21, []bool{true, true, false}, true},
		{Mux2, []bool{true, false, false}, true},
		{Mux2, []bool{true, false, true}, false},
		{Mux2, []bool{false, true, true}, true},
		{TieLo, nil, false},
		{TieHi, nil, true},
		{DFF, []bool{true}, true},
		{RazorFF, []bool{false}, false},
	}
	for _, c := range cases {
		if got := lib.Cell(c.k).Eval(c.in); got != c.want {
			t.Errorf("%v(%v) = %v, want %v", c.k, c.in, got, c.want)
		}
	}
}

func TestEvalPanicsOnArityMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Default65nm().Cell(Nand2).Eval([]bool{true})
}

func TestDeMorganProperty(t *testing.T) {
	lib := Default65nm()
	nand, and2, inv := lib.Cell(Nand2), lib.Cell(And2), lib.Cell(Inv)
	nor, or2 := lib.Cell(Nor2), lib.Cell(Or2)
	f := func(a, b bool) bool {
		in := []bool{a, b}
		okNand := nand.Eval(in) == inv.Eval([]bool{and2.Eval(in)})
		okNor := nor.Eval(in) == inv.Eval([]bool{or2.Eval(in)})
		okAoi := lib.Cell(Aoi21).Eval([]bool{a, b, false}) == nand.Eval(in)
		return okNand && okNor && okAoi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTechDefaultsValid(t *testing.T) {
	tech := DefaultTech()
	if err := tech.Validate(); err != nil {
		t.Fatal(err)
	}
	if tech.Vdd(DomainLow) != 1.0 || tech.Vdd(DomainHigh) != 1.2 {
		t.Error("supplies wrong")
	}
}

func TestTechValidateCatchesBadParams(t *testing.T) {
	mods := []func(*Tech){
		func(t *Tech) { t.VddHigh = 0.9 },
		func(t *Tech) { t.VddLow = -1 },
		func(t *Tech) { t.Vth0 = 1.5 },
		func(t *Tech) { t.Alpha = 3 },
		func(t *Tech) { t.LgateNM = 0 },
		func(t *Tech) { t.SubthermalV = 0 },
		func(t *Tech) { t.RowHeightUM = 0 },
	}
	for i, m := range mods {
		tech := DefaultTech()
		m(&tech)
		if err := tech.Validate(); err == nil {
			t.Errorf("mod %d: invalid tech accepted", i)
		}
	}
}

func TestVthEffBehaviour(t *testing.T) {
	tech := DefaultTech()
	vthNom := tech.VthEff(1.0, 65)
	if vthNom <= 0 || vthNom >= tech.Vth0 {
		t.Errorf("nominal Vth %g out of range (0, Vth0)", vthNom)
	}
	// Longer channel -> higher Vth (paper: increase of Lgate causes
	// an increase of Vth).
	if tech.VthEff(1.0, 70) <= vthNom {
		t.Error("Vth should rise with Lgate")
	}
	// Higher Vdd -> lower Vth (DIBL).
	if tech.VthEff(1.2, 65) >= vthNom {
		t.Error("Vth should drop with Vdd")
	}
}

func TestDelayScaleNominalIsOne(t *testing.T) {
	tech := DefaultTech()
	if s := tech.DelayScale(tech.VddLow, tech.LgateNM); math.Abs(s-1) > 1e-12 {
		t.Fatalf("nominal delay scale = %g, want 1", s)
	}
}

func TestDelayScaleDirections(t *testing.T) {
	tech := DefaultTech()
	// Longer gate -> slower.
	if tech.DelayScale(1.0, 68) <= 1 {
		t.Error("longer gate should be slower")
	}
	// Shorter gate -> faster.
	if tech.DelayScale(1.0, 62) >= 1 {
		t.Error("shorter gate should be faster")
	}
	// Higher Vdd -> faster.
	boost := tech.SpeedupHighVdd()
	if boost >= 1 {
		t.Errorf("high-Vdd speedup %g should be < 1", boost)
	}
	// The paper compensates a ~10% frequency degradation with the
	// 1.0->1.2V boost, so the boost must buy at least that much.
	if boost > 0.92 {
		t.Errorf("high-Vdd boost %g too weak to compensate 10%% slowdown", boost)
	}
	if boost < 0.80 {
		t.Errorf("high-Vdd boost %g implausibly strong", boost)
	}
}

func TestDelayScaleLgateExponent(t *testing.T) {
	// At fixed voltage the L dependence must be L^1.5 (paper Eq. 3)
	// modulated only by the weak DIBL term.
	tech := DefaultTech()
	tech.AlphaDIBL = 1000 // kill DIBL entirely: exp(-1000*L) = 0
	s := tech.DelayScale(1.0, 65*1.1)
	if math.Abs(s-math.Pow(1.1, 1.5)) > 1e-9 {
		t.Errorf("delay scale %g, want %g", s, math.Pow(1.1, 1.5))
	}
}

func TestLeakScaleDirections(t *testing.T) {
	tech := DefaultTech()
	if s := tech.LeakScale(1.0, tech.LgateNM); math.Abs(s-1) > 1e-12 {
		t.Errorf("nominal leak scale = %g, want 1", s)
	}
	if tech.LeakScale(1.0, 60) <= 1 {
		t.Error("shorter channel should leak more")
	}
	if tech.LeakScale(1.0, 70) >= 1 {
		t.Error("longer channel should leak less")
	}
}

func TestEnergyScale(t *testing.T) {
	tech := DefaultTech()
	if tech.EnergyScale(DomainLow) != 1 {
		t.Error("low-domain energy scale must be 1")
	}
	if math.Abs(tech.EnergyScale(DomainHigh)-1.44) > 1e-12 {
		t.Errorf("high-domain energy scale = %g, want 1.44", tech.EnergyScale(DomainHigh))
	}
}

// Property: delay scale is monotone increasing in Lgate and decreasing
// in Vdd over the physical range.
func TestDelayScaleMonotoneProperty(t *testing.T) {
	tech := DefaultTech()
	f := func(a, b uint8) bool {
		l1 := 55 + float64(a%30)/2 // 55..70nm
		l2 := 55 + float64(b%30)/2
		if l1 > l2 {
			l1, l2 = l2, l1
		}
		if tech.DelayScale(1.0, l1) > tech.DelayScale(1.0, l2)+1e-12 {
			return false
		}
		v1 := 0.9 + float64(a%40)/100 // 0.9..1.3V
		v2 := 0.9 + float64(b%40)/100
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		return tech.DelayScale(v1, 65) >= tech.DelayScale(v2, 65)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLevelShifterFlags(t *testing.T) {
	lib := Default65nm()
	if !lib.Cell(LvlShift).IsLevelShifter() {
		t.Error("LVLSHIFT not flagged")
	}
	if lib.Cell(Buf).IsLevelShifter() {
		t.Error("BUF flagged as level shifter")
	}
	if !lib.Cell(TieHi).IsTie() || lib.Cell(Inv).IsTie() {
		t.Error("tie flags wrong")
	}
}

func TestDomainString(t *testing.T) {
	if DomainLow.String() != "VDD_LOW" || DomainHigh.String() != "VDD_HIGH" {
		t.Error("domain names wrong")
	}
}

func TestRazorCostlierThanDFF(t *testing.T) {
	lib := Default65nm()
	dff, rz := lib.Cell(DFF), lib.Cell(RazorFF)
	if rz.AreaUM2 <= dff.AreaUM2 || rz.InternalFJ <= dff.InternalFJ || rz.LeakNW[0] <= dff.LeakNW[0] {
		t.Error("Razor FF must cost more than a plain DFF")
	}
}

// TestDelayScalerBitIdentical locks the fast-path contract: the
// hoisted-denominator scaler must reproduce DelayScale bit for bit
// across the realistic Lgate range at both supplies.
func TestDelayScalerBitIdentical(t *testing.T) {
	tech := DefaultTech()
	for _, vdd := range []float64{tech.VddLow, tech.VddHigh} {
		scaler := tech.DelayScaler(vdd)
		for lg := 55.0; lg <= 75.0; lg += 0.0625 {
			want := tech.DelayScale(vdd, lg)
			got := scaler(lg)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("vdd=%g lg=%g: scaler %v != DelayScale %v", vdd, lg, got, want)
			}
		}
	}
}

// TestScaleIntoMatchesDelayScaler pins the vector scaler to the scalar
// one, bit for bit, with and without derates and domains.
func TestScaleIntoMatchesDelayScaler(t *testing.T) {
	tech := DefaultTech()
	lo, hi := tech.DelayScaler(tech.VddLow), tech.DelayScaler(tech.VddHigh)
	const n = 97
	lg := make([]float64, n)
	derate := make([]float64, n)
	doms := make([]Domain, n)
	for i := range lg {
		lg[i] = 58 + 0.15*float64(i)
		derate[i] = 0.9 + 0.002*float64(i)
		if i%3 == 0 {
			doms[i] = DomainHigh
		}
	}
	dst := make([]float64, n)
	for _, c := range []struct {
		derate []float64
		doms   []Domain
	}{{nil, nil}, {derate, nil}, {nil, doms}, {derate, doms}} {
		tech.ScaleInto(dst, lg, c.derate, c.doms)
		for i := range dst {
			want := lo(lg[i])
			if c.doms != nil && c.doms[i] == DomainHigh {
				want = hi(lg[i])
			}
			if c.derate != nil {
				want *= c.derate[i]
			}
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("derate=%v domains=%v cell %d: %v, want %v", c.derate != nil, c.doms != nil, i, dst[i], want)
			}
		}
	}
}
