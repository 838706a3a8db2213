package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stdlibProg calls the per-ISA stdlib and allocator from both default
// core families, so it links only if each family's library is present.
const stdlibProg = `
.func main isa=host
    la   a0, dst
    la   a1, msg
    movi a2, 6
    call memcpy
    call strlen
    call on_nxp
    halt
.endfunc

.func on_nxp isa=nxp
    push ra
    movi a0, 16
    call malloc
    la   a1, msg
    movi a2, 6
    call memcpy
    pop  ra
    ret
.endfunc

.data msg isa=host
    .ascii "hello"
    .byte 0
.enddata
.data dst isa=host
    .zero 16
.enddata
`

// runCLI invokes run() in-process and returns exit code, stdout, stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func writeProg(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.fasm")
	if err := os.WriteFile(path, []byte(stdlibProg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLinksStdlibPerFamily(t *testing.T) {
	code, stdout, stderr := runCLI(t, writeProg(t))
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, sym := range []string{
		"__flick_host_handler", "__flick_nxp_handler",
		"malloc.host", "malloc.nxp", "nxp_malloc", "print_str",
		"memcpy.host", "memcpy.nxp", "memset.nxp", "strlen.host",
	} {
		if !strings.Contains(stdout, " "+sym+" ") {
			t.Errorf("image map lacks %s:\n%s", sym, stdout)
		}
	}
	if !strings.Contains(stdout, ".text.nxp") {
		t.Errorf("image map lacks the nxp text segment:\n%s", stdout)
	}
}

func TestNoRuntimeLeavesStdlibUndefined(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-no-runtime", writeProg(t))
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if stdout != "" {
		t.Errorf("failed link wrote stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, `symbol "memcpy.host": undefined`) {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestNoArgsUsageExit2(t *testing.T) {
	code, stdout, stderr := runCLI(t)
	if code != 2 || stdout != "" || !strings.Contains(stderr, "usage: flickld") {
		t.Errorf("exit = %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
