package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"runtime/pprof"
	"strings"
)

// shareModules are the packages cpu_share.<module> is reported for.
var shareModules = []string{
	"mldsa", "mlkem", "sha3", "sphincs", "falcon", "hqc", "bike", "gf2x",
	"tls13", "pki", "live", "netsim", "tcpsim", "nettap", "harness", "runtime",
}

// cpuProfile collects a CPU profile over one or more measurement blocks and
// folds each by the package of the innermost frame (flat time).
type cpuProfile struct {
	buf    bytes.Buffer
	byMod  map[string]int64 // CPU nanoseconds
	total  int64
	active bool
}

func newCPUProfile() *cpuProfile { return &cpuProfile{byMod: map[string]int64{}} }

func (p *cpuProfile) start() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p.active = true
	return nil
}

// stop ends the block and folds its samples into the totals.
func (p *cpuProfile) stop() error {
	if !p.active {
		return nil
	}
	pprof.StopCPUProfile()
	p.active = false
	flat, err := foldProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	for fn, ns := range flat {
		p.byMod[moduleOf(fn)] += ns
		p.total += ns
	}
	return nil
}

// shares returns each module's fraction of the profiled CPU.
func (p *cpuProfile) shares() map[string]float64 {
	out := map[string]float64{}
	for _, m := range shareModules {
		if p.total > 0 {
			out[m] = float64(p.byMod[m]) / float64(p.total)
		} else {
			out[m] = 0
		}
	}
	return out
}

// moduleOf names the module a function belongs to: the last element of a
// package under pqtls/internal, "runtime" for the Go runtime, else "other".
func moduleOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "pqtls/internal/"):
		return path.Base(pkg)
	}
	return "other"
}

// foldProfile decodes a gzipped pprof CPU profile and returns the CPU
// nanoseconds of each innermost function. It reads only the fields it
// needs from the profile.proto encoding.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []sample
		strs     []string
		leafFunc = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> string index
	)
	err = walkFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := walkFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, data)
				case 2:
					s.values = appendPacked(s.values, v, data)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			seenLine := false
			err := walkFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: the first is the innermost inlined frame
					if !seenLine {
						seenLine = true
						return walkFields(data, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := walkFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := "?"
		if idx := funcName[leafFunc[s.locs[0]]]; idx < uint64(len(strs)) {
			name = strs[idx]
		}
		// CPU profiles carry (samples, nanoseconds); the last value is time.
		out[name] += int64(s.values[len(s.values)-1])
	}
	return out, nil
}

var errTruncated = errors.New("cpu profile: truncated protobuf")

// walkFields calls fn for each field of a protobuf message. For varint
// fields v holds the value and data is nil; for length-delimited fields
// data holds the bytes. Fixed-width fields are skipped.
func walkFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (data
// nil, value v) or packed (data holds the varints).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
