// CNN inference: train a small CNN on the procedural dataset, quantize it
// to 8-bit integers, and run the same quantized network through (a) exact
// integer arithmetic and (b) the SCONNA functional core — LUT streams,
// optical AND gates and PCA accumulation with the 1.3%-MAPE ADC — then
// also simulate the four paper CNNs on the SCONNA performance model.
package main

import (
	"fmt"
	"log"
	"math/rand"

	sconna "repro"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/sckernel"
)

func main() {
	fmt.Println("Training a small CNN on the procedural dataset...")
	cfg := dataset.DefaultConfig()
	examples := dataset.Generate(cfg, 320)
	train, test := dataset.Split(examples, 0.25)
	net := nn.BuildSmallCNN(6, dataset.NumClasses, 42)
	res := net.Train(train, 12, 16, nn.SGD{LR: 0.05, Momentum: 0.9}, rand.New(rand.NewSource(42)))
	fmt.Printf("  train accuracy %.1f%%, loss %.3f, %d params\n",
		res.TrainAccuracy*100, res.FinalLoss, net.NumParams())

	qn, err := quant.Quantize(net, 8, train[:32])
	if err != nil {
		log.Fatal(err)
	}

	ccfg := sconna.DefaultCoreConfig()
	ccfg.N = 64 // chunking granularity of the functional engine
	ccfg.M = 1
	engine, err := sckernel.New(ccfg)
	if err != nil {
		log.Fatal(err)
	}

	subset := test
	if len(subset) > 40 {
		subset = subset[:40]
	}
	e1, e5 := qn.Evaluate(subset, 5, quant.ExactEngine{})
	s1, s5 := qn.Evaluate(subset, 5, engine)
	fmt.Println("\nQuantized inference, exact integer vs SCONNA optical arithmetic:")
	fmt.Printf("  exact int8   top-1 %.1f%%  top-5 %.1f%%\n", e1*100, e5*100)
	fmt.Printf("  SCONNA       top-1 %.1f%%  top-5 %.1f%%\n", s1*100, s5*100)
	fmt.Printf("  drop         top-1 %.1f pp top-5 %.1f pp\n", (e1-s1)*100, (e5-s5)*100)

	fmt.Println("\nPerformance-plane simulation of the paper's CNNs on SCONNA:")
	for _, m := range sconna.EvaluatedModels() {
		r, err := sconna.Simulate(sconna.SconnaAccel(), m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s %9.0f FPS  %7.2f FPS/W  latency %.3f ms\n",
			m.Name, r.FPS, r.FPSPerW, r.TotalNS/1e6)
	}
}
