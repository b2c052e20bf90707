package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the benchmark's layer names: this repository's modules, plus
// runtime.bg for samples with no repository frame (garbage collection,
// scheduler). Every CPU sample is charged to exactly one of them.
var layers = []string{
	"bench", "ingress", "sched", "vhttp", "netsim", "vllm", "telemetry", "metrics",
	"trace", "autoscale", "core", "sim", "workload", "runtime.bg",
}

// layerOfPackage maps a repository package to its layer. The deploy path's
// packages (schedulers, container runtimes, registries, object store, site
// fabric) are charged to core, which drives them.
var layerOfPackage = map[string]string{
	"bench": "bench", "ingress": "ingress", "sched": "sched", "vhttp": "vhttp",
	"netsim": "netsim", "vllm": "vllm", "llm": "vllm", "telemetry": "telemetry",
	"metrics": "metrics", "trace": "trace", "autoscale": "autoscale", "sim": "sim",
	"workload": "workload", "sharegpt": "workload",
}

const (
	repoPrefix = "repro/internal/"
	// selfPrefix names this package's frames where the linker does not call
	// them main (in its test binary).
	selfPrefix = "repro/perfbench."
)

// layerOf charges one sample, given its function names innermost first, to
// the package of its innermost repository frame. The benchmark's own code
// is client code and counts as bench.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, selfPrefix) {
			return "bench"
		}
		if !strings.HasPrefix(fn, repoPrefix) {
			continue
		}
		pkg := fn[len(repoPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := layerOfPackage[pkg]; ok {
			return l
		}
		return "core"
	}
	return "runtime.bg"
}

// layerShares parses a CPU profile written by runtime/pprof and returns
// each layer's share of its samples.
func layerShares(profile []byte) (map[string]float64, int64, error) {
	stacks, counts, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	return bucket(stacks, counts)
}

// bucket sums sample counts per layer and normalises them to shares.
func bucket(stacks [][]string, counts []int64) (map[string]float64, int64, error) {
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
	}
	var total int64
	for i, st := range stacks {
		shares[layerOf(st)] += float64(counts[i])
		total += counts[i]
	}
	if total == 0 {
		return shares, 0, errors.New("profile holds no samples")
	}
	for l := range shares {
		shares[l] /= float64(total)
	}
	return shares, total, nil
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, returning each sample's function names innermost first and its
// sample count. Only the fields needed for that are read.
func parseProfile(data []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		strtab    []string
		funcName  = map[uint64]int64{}    // function id → string index
		locations = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			values := 0
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						if values == 0 {
							s.count = int64(x)
						}
						values++
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	counts := make([]int64, len(samples))
	for i, s := range samples {
		counts[i] = s.count
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				if idx := funcName[fn]; idx >= 0 && idx < int64(len(strtab)) {
					stacks[i] = append(stacks[i], strtab[idx])
				}
			}
		}
	}
	return stacks, counts, nil
}

// appendVarints adds a repeated integer field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks a protobuf message, calling fn with each field's number,
// wire type and value (varint) or payload (length-delimited).
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
