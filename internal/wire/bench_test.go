package wire

import (
	"context"
	"sync"
	"testing"
)

// largeSpecs are six AGM-family specs whose reports are about 2 MB each:
// the protocols and sizes the service's large-transcript cache hits serve.
func largeSpecs() []RunSpec {
	gnp := func(n int) GraphSpec { return GraphSpec{Kind: "gnp", N: n, P: 8 / float64(n-1), Seed: 7} }
	specs := []RunSpec{
		{Protocol: "agm-forest", Graph: gnp(100)},
		{Protocol: "agm-forest-backup", Graph: gnp(64)},
		{Protocol: "agm-skeleton", Graph: gnp(64)},
		{Protocol: "agm-components", Graph: gnp(100)},
		{Protocol: "mst-weight", Graph: gnp(140)},
		{Protocol: "agm-cut-sparsifier", Graph: gnp(140)},
	}
	for i := range specs {
		specs[i].Label = specs[i].Protocol
		specs[i].Seed = uint64(11 + i)
		specs[i].Workers = 1
	}
	return specs
}

var largeReports = sync.OnceValues(func() ([]*RunReport, error) {
	var reports []*RunReport
	for _, spec := range largeSpecs() {
		r, err := ExecuteSpec(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		reports = append(reports, r)
	}
	return reports, nil
})

// BenchmarkWireReportEncodeLarge encodes the six large reports per op.
func BenchmarkWireReportEncodeLarge(b *testing.B) {
	reports, err := largeReports()
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	for _, r := range reports {
		size += int64(len(EncodeRunReport(r)))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reports {
			sinkFrame = EncodeRunReport(r)
		}
	}
}

// BenchmarkWireReportDecodeLarge decodes the six large report frames per
// op — what a client does with each large response.
func BenchmarkWireReportDecodeLarge(b *testing.B) {
	reports, err := largeReports()
	if err != nil {
		b.Fatal(err)
	}
	var (
		frames [][]byte
		size   int64
	)
	for _, r := range reports {
		frames = append(frames, EncodeRunReport(r))
		size += int64(len(frames[len(frames)-1]))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			if _, err := DecodeRunReport(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}
