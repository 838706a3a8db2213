package multibin_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"strings"
	"testing"

	"flick/internal/asm"
	"flick/internal/isa"
	. "flick/internal/multibin"
)

// assembleT is a test helper bridging to the assembler package.
func assembleT(t *testing.T, src string) *Object {
	t.Helper()
	obj, err := asm.Assemble("test.fasm", src)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

const dualISAProgram = `
.func main isa=host
    la   a0, numbers
    movi a1, 3
    call sum_on_nxp     ; cross-ISA reference
    halt
.endfunc

.func helper isa=host
    ret
.endfunc

.func sum_on_nxp isa=nxp
    movi t0, 0
loop:
    ld8  t1, [a0+0]
    add  t0, t0, t1
    addi a0, a0, 8
    addi a1, a1, -1
    bne  a1, zr, loop
    mov  a0, t0
    call helper          ; NxP -> host reference
    ret
.endfunc

.data numbers isa=nxp align=8
    .word64 10, 20, 30
.enddata

.data hostbuf isa=host
    .zero 64
    .addr sum_on_nxp     ; function pointer crossing ISAs
.enddata
`

func TestLinkDualISALayout(t *testing.T) {
	im, err := Link(LinkConfig{}, assembleT(t, dualISAProgram))
	if err != nil {
		t.Fatal(err)
	}
	if len(im.Segments) != 4 {
		t.Fatalf("segments = %d: %+v", len(im.Segments), im.Segments)
	}
	// Order: host text, nxp text, host data, nxp data; all page aligned.
	wantOrder := []string{".text", ".text.nxp", ".data", ".data.nxp"}
	for i, seg := range im.Segments {
		if seg.Name != wantOrder[i] {
			t.Errorf("segment %d = %q, want %q", i, seg.Name, wantOrder[i])
		}
		if seg.VA%PageSize != 0 {
			t.Errorf("segment %q at unaligned VA %#x", seg.Name, seg.VA)
		}
	}
	// Segments must not overlap.
	for i := 1; i < len(im.Segments); i++ {
		if im.Segments[i].VA < im.Segments[i-1].End() {
			t.Errorf("segments %d/%d overlap", i-1, i)
		}
	}
	if im.Entry != im.Symbols["main"] {
		t.Errorf("entry = %#x, main = %#x", im.Entry, im.Symbols["main"])
	}
	if got, ok := im.TextISA(im.Symbols["sum_on_nxp"]); !ok || got != isa.ISANxP {
		t.Errorf("TextISA(sum_on_nxp) = %v, %v", got, ok)
	}
	if got, ok := im.TextISA(im.Symbols["main"]); !ok || got != isa.ISAHost {
		t.Errorf("TextISA(main) = %v, %v", got, ok)
	}
	if _, ok := im.TextISA(im.Symbols["numbers"]); ok {
		t.Error("TextISA claimed data is text")
	}
}

// fetchInstr decodes the instruction at va in the linked image.
func fetchInstr(t *testing.T, im *Image, va uint64, codec isa.Codec) isa.Instr {
	t.Helper()
	seg, ok := im.SegmentAt(va)
	if !ok {
		t.Fatalf("no segment at %#x", va)
	}
	ins, _, err := codec.Decode(seg.Bytes[va-seg.VA:])
	if err != nil {
		t.Fatalf("decode at %#x: %v", va, err)
	}
	return ins
}

func TestLinkResolvesCrossISAReferences(t *testing.T) {
	im, err := Link(LinkConfig{}, assembleT(t, dualISAProgram))
	if err != nil {
		t.Fatal(err)
	}
	host := isa.HostCodec{}

	// main: la a0, numbers → movi with abs64 == numbers VA.
	mainVA := im.Symbols["main"]
	la := fetchInstr(t, im, mainVA, host)
	if la.Op != isa.OpMovi || uint64(la.Imm) != im.Symbols["numbers"] {
		t.Errorf("la = %v, numbers at %#x", la, im.Symbols["numbers"])
	}

	// Walk main to its call and check the PC-relative target.
	seg, _ := im.SegmentAt(mainVA)
	off := mainVA - seg.VA
	var callVA uint64
	for {
		ins, n, err := host.Decode(seg.Bytes[off:])
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if ins.Op == isa.OpCall {
			callVA = seg.VA + off
			if got := callVA + uint64(ins.Imm); got != im.Symbols["sum_on_nxp"] {
				t.Errorf("call target = %#x, want sum_on_nxp %#x", got, im.Symbols["sum_on_nxp"])
			}
			break
		}
		if ins.Op == isa.OpHalt {
			t.Fatal("no call found in main")
		}
		off += uint64(n)
	}

	// The NxP function's trailing call resolves to the host helper.
	nxp := isa.NxpCodec{}
	fnVA := im.Symbols["sum_on_nxp"]
	seg2, _ := im.SegmentAt(fnVA)
	for off := fnVA - seg2.VA; off < uint64(len(seg2.Bytes)); off += uint64(isa.NxpInstrLen) {
		ins, _, err := nxp.Decode(seg2.Bytes[off:])
		if err != nil {
			t.Fatalf("nxp decode: %v", err)
		}
		if ins.Op == isa.OpCall {
			if got := seg2.VA + off + uint64(ins.Imm); got != im.Symbols["helper"] {
				t.Errorf("nxp call target = %#x, want helper %#x", got, im.Symbols["helper"])
			}
			return
		}
	}
	t.Fatal("no call found in sum_on_nxp")
}

func TestLinkDataPointerRelocation(t *testing.T) {
	im, err := Link(LinkConfig{}, assembleT(t, dualISAProgram))
	if err != nil {
		t.Fatal(err)
	}
	// hostbuf's trailing .addr holds sum_on_nxp's VA.
	seg, _ := im.SegmentAt(im.Symbols["hostbuf"])
	off := im.Symbols["hostbuf"] - seg.VA + 64
	got := binary.LittleEndian.Uint64(seg.Bytes[off:])
	if got != im.Symbols["sum_on_nxp"] {
		t.Errorf(".addr = %#x, want %#x", got, im.Symbols["sum_on_nxp"])
	}
}

func TestLinkNxpAbsHiLoPair(t *testing.T) {
	im, err := Link(LinkConfig{}, assembleT(t, `
.func main isa=host
    halt
.endfunc
.func f isa=nxp
    la a2, blob
    ret
.endfunc
.data blob isa=nxp
    .word64 0
.enddata
`))
	if err != nil {
		t.Fatal(err)
	}
	nxp := isa.NxpCodec{}
	fVA := im.Symbols["f"]
	movi := fetchInstr(t, im, fVA, nxp)
	orhi := fetchInstr(t, im, fVA+uint64(isa.NxpInstrLen), nxp)
	// Reconstruct: movi sign-extends its low 32; orhi overwrites the top.
	lo := uint64(uint32(movi.Imm))
	hi := uint64(orhi.Imm) << 32
	if got := hi | lo; got != im.Symbols["blob"] {
		t.Errorf("movi/orhi reconstruct %#x, want %#x", got, im.Symbols["blob"])
	}
}

func TestLinkMergesMultipleObjects(t *testing.T) {
	objA := assembleT(t, `
.func main isa=host
    call libfn
    halt
.endfunc
`)
	objB := assembleT(t, `
.func libfn isa=host
    movi a0, 99
    ret
.endfunc
`)
	im, err := Link(LinkConfig{}, objA, objB)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := im.Symbols["libfn"]; !ok {
		t.Fatal("libfn missing after merge")
	}
	// Verify the cross-object call resolved.
	host := isa.HostCodec{}
	seg, _ := im.SegmentAt(im.Entry)
	ins, _, err := host.Decode(seg.Bytes[im.Entry-seg.VA:])
	if err != nil || ins.Op != isa.OpCall {
		t.Fatalf("entry ins = %v, %v", ins, err)
	}
	if got := im.Entry + uint64(ins.Imm); got != im.Symbols["libfn"] {
		t.Errorf("cross-object call target = %#x, want %#x", got, im.Symbols["libfn"])
	}
}

func TestLinkErrors(t *testing.T) {
	t.Run("undefined symbol", func(t *testing.T) {
		_, err := Link(LinkConfig{}, assembleT(t, ".func main isa=host\n call nowhere\n halt\n.endfunc"))
		if err == nil || !strings.Contains(err.Error(), "undefined") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("first undefined symbol in layout order", func(t *testing.T) {
		// Undefined references in several sections: the error must name
		// the same one every time (the host text's, laid out first), not
		// whichever section map iteration visits first.
		src := ".func main isa=host\n call nowhere_host\n halt\n.endfunc\n" +
			".func f isa=nxp\n call nowhere_nxp\n ret\n.endfunc\n" +
			".func g isa=cmp\n call nowhere_cmp\n ret\n.endfunc"
		for range 20 {
			_, err := Link(LinkConfig{}, assembleT(t, src))
			if err == nil || !strings.Contains(err.Error(), `"nowhere_host": undefined`) {
				t.Fatalf("err = %v, want nowhere_host undefined", err)
			}
		}
	})
	t.Run("duplicate symbol", func(t *testing.T) {
		src := ".func main isa=host\n ret\n.endfunc"
		_, err := Link(LinkConfig{}, assembleT(t, src), assembleT(t, src))
		if err == nil || !strings.Contains(err.Error(), "defined at both") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("missing entry", func(t *testing.T) {
		_, err := Link(LinkConfig{}, assembleT(t, ".func notmain isa=host\n ret\n.endfunc"))
		if err == nil || !strings.Contains(err.Error(), "entry") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("nxp entry rejected", func(t *testing.T) {
		_, err := Link(LinkConfig{}, assembleT(t, ".func main isa=nxp\n ret\n.endfunc"))
		if err == nil || !strings.Contains(err.Error(), "host") {
			t.Errorf("err = %v", err)
		}
	})
}

func TestLinkCustomBaseAndEntry(t *testing.T) {
	im, err := Link(LinkConfig{BaseVA: 0x10000, Entry: "start"}, assembleT(t, `
.func start isa=host
    halt
.endfunc
`))
	if err != nil {
		t.Fatal(err)
	}
	if im.Segments[0].VA != 0x10000 {
		t.Errorf("base VA = %#x", im.Segments[0].VA)
	}
	if im.Entry != im.Symbols["start"] {
		t.Error("custom entry ignored")
	}
}

func TestSectionNameConvention(t *testing.T) {
	if SectionName(SecText, isa.ISANxP) != ".text.nxp" || SectionName(SecData, isa.ISAHost) != ".data" {
		t.Error("section naming convention broken")
	}
}

func TestObjectGobRoundTrip(t *testing.T) {
	// flickasm serializes objects with encoding/gob; linking a decoded
	// object must produce the same image as linking the original.
	obj := assembleT(t, dualISAProgram)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(obj); err != nil {
		t.Fatal(err)
	}
	var decoded Object
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	im1, err := Link(LinkConfig{}, obj)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := Link(LinkConfig{}, &decoded)
	if err != nil {
		t.Fatal(err)
	}
	if len(im1.Segments) != len(im2.Segments) {
		t.Fatalf("segment counts differ")
	}
	for i := range im1.Segments {
		a, b := im1.Segments[i], im2.Segments[i]
		if a.VA != b.VA || !bytes.Equal(a.Bytes, b.Bytes) {
			t.Errorf("segment %s differs after gob round trip", a.Name)
		}
	}
}
