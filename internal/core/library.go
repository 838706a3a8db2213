package core

import (
	"strconv"
	"strings"

	"flick/internal/asm"
	"flick/internal/isa"
	"flick/internal/multibin"
	"flick/internal/platform"
)

// PerISASymbols lists the symbols the linker resolves per referring ISA
// when building Flick programs: the allocator (§III-D) and the stdlib
// memory utilities.
var PerISASymbols = []string{"malloc", "memcpy", "memset", "strlen"}

// libraryTemplate is the Flick runtime library in assembly, one instance
// per core family. Every family gets its migration handler entry stub
// (placed in that family's text so the NX markings are correct), its
// `malloc` variant and the stdlib memory utilities. Like the paper's libc
// situation (§III-D), those exist once per ISA and the linker binds each
// call site to the variant of the *calling* section's ISA, so board code
// manipulating board DRAM never leaves the board for a memcpy:
//
//	memcpy(dst, src, n) → dst
//	memset(dst, byte, n) → dst
//	strlen(ptr) → length of NUL-terminated string
//	print_str(ptr)          — host only: writes a NUL-terminated string
//	                          to the console via sys 2
//
// "$isa" stands for the family's name, "$handler" and "$malloc" for its
// native ids; host-only functions are left out of the board families'
// libraries. Functions are emitted in one object per family, in this
// order, so the family's function alignment alone decides their layout.
var libraryTemplate = []struct {
	hostOnly bool
	src      string
}{
	{false, `
.func __flick_$isa_handler isa=$isa
    native $handler
.endfunc
`},
	{false, `
.func malloc.$isa isa=$isa
    native $malloc
.endfunc
`},
	{true, `
; Annotated allocation: lets host code place data in the NxP region
; explicitly (the paper's near-storage initialization case).
.func nxp_malloc isa=$isa
    native ` + strconv.Itoa(NativeMallocNxPFromHost) + `
.endfunc
`},
	{false, `
.func memcpy.$isa isa=$isa
    ; a0 = dst, a1 = src, a2 = n; returns dst
    mov  t5, a0
mloop:
    beq  a2, zr, mdone
    ld1  t0, [a1+0]
    st1  t0, [a0+0]
    addi a0, a0, 1
    addi a1, a1, 1
    addi a2, a2, -1
    jmp  mloop
mdone:
    mov  a0, t5
    ret
.endfunc
`},
	{false, `
.func memset.$isa isa=$isa
    ; a0 = dst, a1 = fill byte, a2 = n; returns dst
    mov  t5, a0
sloop:
    beq  a2, zr, sdone
    st1  a1, [a0+0]
    addi a0, a0, 1
    addi a2, a2, -1
    jmp  sloop
sdone:
    mov  a0, t5
    ret
.endfunc
`},
	{false, `
.func strlen.$isa isa=$isa
    ; a0 = ptr; returns length
    movi t0, 0
lloop:
    ld1  t1, [a0+0]
    beq  t1, zr, ldone
    addi t0, t0, 1
    addi a0, a0, 1
    jmp  lloop
ldone:
    mov  a0, t0
    ret
.endfunc
`},
	{true, `
; print_str is host-only: the console is a host kernel service.
.func print_str isa=$isa
ploop:
    ld1  t0, [a0+0]
    beq  t0, zr, pdone
    push a0
    mov  a0, t0
    sys  2
    pop  a0
    addi a0, a0, 1
    jmp  ploop
pdone:
    ret
.endfunc
`},
}

// LibrarySource generates the runtime library of one core family. The
// board families share the generic board handler and allocator natives:
// the runtime keys its state on the faulting core, not the encoding.
func LibrarySource(be isa.Backend) string {
	handler, malloc := NativeNxPHandler, NativeMallocNxP
	if be.Host() {
		handler, malloc = NativeHostHandler, NativeMallocHost
	}
	r := strings.NewReplacer("$isa", be.Name(),
		"$handler", strconv.Itoa(handler), "$malloc", strconv.Itoa(malloc))
	var b strings.Builder
	b.WriteString("; Flick runtime library, " + be.Name() + " family.\n")
	for _, fn := range libraryTemplate {
		if fn.hostOnly && !be.Host() {
			continue
		}
		r.WriteString(&b, fn.src)
	}
	return b.String()
}

// RuntimeLibraries assembles one runtime library object for each core
// family a machine built from p carries, in registry order. A family no
// core carries gets no library, so the image never holds text no core
// could execute.
func RuntimeLibraries(p platform.Params) ([]*multibin.Object, error) {
	families, err := p.CoreISAs()
	if err != nil {
		return nil, err
	}
	objects := make([]*multibin.Object, 0, len(families))
	for _, is := range families {
		be := isa.MustLookup(is)
		obj, err := asm.Assemble("flick_runtime_"+be.Name()+".fasm", LibrarySource(be))
		if err != nil {
			return nil, err
		}
		objects = append(objects, obj)
	}
	return objects, nil
}
