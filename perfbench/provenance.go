package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// provenance records what a result was measured on: the seed, the code
// (git commit when the checkout is a repository, else a hash of the Go
// sources), the toolchain, the CPU and how busy the host was at start.
func provenance(b *bench) map[string]any {
	return map[string]any{
		"workload":      b.workload,
		"seed":          b.seed,
		"seconds":       b.seconds,
		"commit":        commit(b.root),
		"source_sha256": sourceHash(b.root),
		"go_version":    runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"loadavg":       strings.TrimSpace(readFile("/proc/loadavg")),
	}
}

// cpuTicks reads the host's aggregate CPU counters from /proc/stat:
// total ticks and the ticks stolen by the hypervisor for other guests.
func cpuTicks() (total, steal float64) {
	line, _, _ := strings.Cut(readFile("/proc/stat"), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[min(1, len(fields)):] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (checkout is not a git repository; see source_sha256)"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes every .go file and go.mod under root, in path order,
// so two checkouts of the same code report the same value.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func readFile(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(data)
}
