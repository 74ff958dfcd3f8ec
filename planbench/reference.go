package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"

	"dnnparallel"
)

// referenceFile holds the recorded winner digests, per workload and seed,
// with the fingerprint of the machine they were recorded on.
const referenceFile = "planbench/reference.json"

type reference struct {
	Fingerprint string                       `json:"fingerprint"`
	Digests     map[string]map[string]string `json:"digests"`
}

func loadReference(root string) (reference, error) {
	var ref reference
	data, err := os.ReadFile(filepath.Join(root, referenceFile))
	if err != nil {
		return ref, fmt.Errorf("reading the reference digests: %w", err)
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return ref, fmt.Errorf("%s: %w", referenceFile, err)
	}
	return ref, nil
}

// verifyDigest compares a run's winner digest with the recorded one for
// its seed. A seed without a recording is compared with the winners the
// façade computes in-process for the same questions.
func verifyDigest(o options, reqs []request, got string) error {
	ref, err := loadReference(o.root)
	if err != nil {
		return err
	}
	if want, ok := ref.Digests[o.workload][strconv.FormatInt(o.seed, 10)]; ok {
		if got != want {
			return fmt.Errorf("winner digest %s, recorded reference %s (recorded on %s)", got, want, ref.Fingerprint)
		}
		fmt.Printf("  digest matches the recorded reference\n")
		return nil
	}
	want, err := referenceDigest(reqs)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("winner digest %s, in-process reference %s", got, want)
	}
	fmt.Printf("  digest matches the in-process reference (seed not recorded)\n")
	return nil
}

// referenceDigest plans every distinct question in-process through the
// façade, checks each plan, and digests the winners.
func referenceDigest(reqs []request) (string, error) {
	var ws []winner
	for _, req := range distinct(reqs) {
		sc, err := dnnparallel.DecodeScenario(req.Body)
		if err != nil {
			return "", fmt.Errorf("%s: %w", req.Name, err)
		}
		res, err := dnnparallel.Plan(sc)
		if err != nil {
			return "", fmt.Errorf("%s: %w", req.Name, err)
		}
		if err := checkPlan(req, res); err != nil {
			return "", err
		}
		ws = append(ws, winnerOf(res.Best))
	}
	return digest(ws), nil
}

// recordDigests prints reference.json updated with the digests of a
// seed range for one workload ("" or all: every workload).
func recordDigests(workload, seeds, root string) error {
	lo, hi, err := parseRange(seeds)
	if err != nil {
		return err
	}
	names := []string{workload}
	if workload == "" || workload == "all" {
		names = workloadNames
	}
	ref, err := loadReference(root)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		ref = reference{}
	}
	if ref.Digests == nil {
		ref.Digests = make(map[string]map[string]string)
	}
	ref.Fingerprint = fingerprint()
	for _, name := range names {
		if ref.Digests[name] == nil {
			ref.Digests[name] = make(map[string]string)
		}
		for seed := lo; seed <= hi; seed++ {
			reqs, err := generate(name, seed, root)
			if err != nil {
				return err
			}
			d, err := referenceDigest(reqs)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			ref.Digests[name][strconv.FormatInt(seed, 10)] = d
		}
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
