// Command flickld links Flick objects (.fobj from flickasm, or .fasm
// sources assembled on the fly) into one multi-ISA image and prints the
// image map: page-aligned per-ISA segments, the resolved symbol table, and
// the loader's NX markings. Unless -no-runtime is given, it links the
// runtime library of each core family the default machine carries (host
// and nxp): the migration handler stubs, the per-ISA malloc variants and
// the memcpy/memset/strlen/print_str stdlib — the same libraries flickrun
// links.
//
// Usage:
//
//	flickld prog.fasm lib.fobj ...
//	flickld -entry start prog.fasm
//	flickld -no-runtime prog.fasm
package main

import (
	"encoding/gob"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"flick/internal/asm"
	"flick/internal/core"
	"flick/internal/isa"
	"flick/internal/multibin"
	"flick/internal/platform"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit so the CLI is testable
// in-process: flags and input files in args, the image map on stdout,
// diagnostics on stderr. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flickld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	entry := fs.String("entry", "main", "entry symbol")
	noRuntime := fs.Bool("no-runtime", false, "do not link the Flick runtime library")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: flickld [-entry sym] [-no-runtime] <file.fasm|file.fobj>...")
		return 2
	}

	var objects []*multibin.Object
	for _, path := range fs.Args() {
		obj, err := loadInput(path)
		if err != nil {
			return fail(stderr, err)
		}
		objects = append(objects, obj)
	}
	if !*noRuntime {
		libs, err := core.RuntimeLibraries(platform.DefaultParams())
		if err != nil {
			return fail(stderr, err)
		}
		objects = append(objects, libs...)
	}

	im, err := multibin.Link(multibin.LinkConfig{
		Entry:         *entry,
		PerISASymbols: core.PerISASymbols,
	}, objects...)
	if err != nil {
		return fail(stderr, err)
	}
	printImage(stdout, im)
	return 0
}

func loadInput(path string) (*multibin.Object, error) {
	if strings.HasSuffix(path, ".fobj") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var obj multibin.Object
		if err := gob.NewDecoder(f).Decode(&obj); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &obj, nil
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return asm.Assemble(path, string(src))
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "flickld:", err)
	return 1
}

func printImage(w io.Writer, im *multibin.Image) {
	fmt.Fprintf(w, "entry %#x\n\n", im.Entry)
	fmt.Fprintln(w, "segments (loader NX marking in brackets):")
	for _, seg := range im.Segments {
		nx := "NX=1"
		if seg.Kind == multibin.SecText && isa.IsHost(seg.ISA) {
			nx = "NX=0"
		}
		note := ""
		if seg.Kind == multibin.SecText && !isa.IsHost(seg.ISA) {
			note = "  (host execution faults here → migration)"
		}
		fmt.Fprintf(w, "  %-12s %v  [%#010x, %#010x)  %6d bytes  [%s]%s\n",
			seg.Name, seg.ISA, seg.VA, seg.End(), len(seg.Bytes), nx, note)
	}
	fmt.Fprintln(w, "\nsymbols:")
	names := make([]string, 0, len(im.Symbols))
	for n := range im.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return im.Symbols[names[i]] < im.Symbols[names[j]] })
	for _, n := range names {
		va := im.Symbols[n]
		loc := "data"
		if target, ok := im.TextISA(va); ok {
			loc = target.String() + " text"
		}
		fmt.Fprintf(w, "  %#010x  %-28s %s\n", va, n, loc)
	}
}
