// Package prof gives the command-line tools their -cpuprofile,
// -memprofile and -trace flags: a run can say where its time and memory
// went without a code edit. The engine labels each experiment cell's
// goroutines with pprof labels (exp, cell), so a CPU profile splits by
// cell with `go tool pprof -tagfocus`.
package prof

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the output paths of the three profiles; an empty path
// leaves that profile off.
type Flags struct {
	CPU, Mem, Trace string
}

// Register adds -cpuprofile, -memprofile and -trace to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&f.Mem, "memprofile", "", "write an allocation profile to `file` when the run ends")
	fs.StringVar(&f.Trace, "trace", "", "write an execution trace to `file`")
	return f
}

// Run calls fn with the requested profiles recording and writes them
// out when fn returns. Profiling errors are joined to fn's error; a
// profile that cannot be started leaves fn unrun.
func (f *Flags) Run(fn func() error) (err error) {
	if f.CPU != "" {
		out, err := os.Create(f.CPU)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			return errors.Join(err, out.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, out.Close())
		}()
	}
	if f.Trace != "" {
		out, err := os.Create(f.Trace)
		if err != nil {
			return err
		}
		if err := trace.Start(out); err != nil {
			return errors.Join(err, out.Close())
		}
		defer func() {
			trace.Stop()
			err = errors.Join(err, out.Close())
		}()
	}
	err = fn()
	if f.Mem != "" {
		err = errors.Join(err, writeAllocs(f.Mem))
	}
	return err
}

// writeAllocs writes the allocation profile (every allocation since
// the program started, with the live heap as of a fresh collection).
func writeAllocs(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.Lookup("allocs").WriteTo(out, 0), out.Close())
}
