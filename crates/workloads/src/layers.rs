//! DNN layer graphs: per-layer compute and traffic accounting.
//!
//! The paper runs whole networks on the DLA and characterizes them by their
//! aggregate bandwidth demand. This module derives those aggregates from
//! first principles — per-layer multiply–accumulate counts and tensor
//! footprints (fp16) — for the four networks the paper uses, and can also
//! expose a network as a [`PhasedWorkload`] whose phases are the layers
//! (weighted by their estimated execution-time share), connecting the DLA
//! experiments to the multi-phase machinery of Section 3.2.
//!
//! [`PhasedWorkload`]: pccs_core::phased::PhasedWorkload

use pccs_core::PhasedWorkload;
use pccs_soc::kernel::KernelDesc;
use serde::{Deserialize, Serialize};

/// Bytes per tensor element (fp16 inference).
const ELEM_BYTES: f64 = 2.0;

/// One layer of a network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// A 2-D convolution.
    Conv {
        /// Square filter size.
        k: u32,
        /// Input channels.
        c_in: u32,
        /// Output channels.
        c_out: u32,
        /// Output spatial height (= width; square feature maps).
        out_hw: u32,
        /// How many times this layer repeats consecutively.
        repeat: u32,
    },
    /// A fully connected layer.
    Fc {
        /// Input features.
        inputs: u32,
        /// Output features.
        outputs: u32,
    },
}

impl Layer {
    /// Arithmetic operations (2 × multiply–accumulates), including repeats.
    pub fn flops(&self) -> f64 {
        match *self {
            Layer::Conv {
                k,
                c_in,
                c_out,
                out_hw,
                repeat,
            } => {
                2.0 * f64::from(k)
                    * f64::from(k)
                    * f64::from(c_in)
                    * f64::from(c_out)
                    * f64::from(out_hw)
                    * f64::from(out_hw)
                    * f64::from(repeat)
            }
            Layer::Fc { inputs, outputs } => 2.0 * f64::from(inputs) * f64::from(outputs),
        }
    }

    /// DRAM traffic in bytes: weights plus input and output activations
    /// (weights stream once; activation reuse inside the conv buffer is
    /// assumed — the DLA's 512 KB convolution buffer holds the working
    /// set, so each tensor moves once).
    pub fn bytes(&self) -> f64 {
        match *self {
            Layer::Conv {
                k,
                c_in,
                c_out,
                out_hw,
                repeat,
            } => {
                let weights = f64::from(k) * f64::from(k) * f64::from(c_in) * f64::from(c_out);
                let out_act = f64::from(c_out) * f64::from(out_hw) * f64::from(out_hw);
                // Input activations approximated by the output size of the
                // previous repeat (same shape within a repeated block).
                let in_act = f64::from(c_in) * f64::from(out_hw) * f64::from(out_hw);
                (weights + in_act + out_act) * ELEM_BYTES * f64::from(repeat)
            }
            Layer::Fc { inputs, outputs } => {
                (f64::from(inputs) * f64::from(outputs) + f64::from(inputs) + f64::from(outputs))
                    * ELEM_BYTES
            }
        }
    }

    /// Operational intensity of the layer (flops per byte).
    pub fn ops_per_byte(&self) -> f64 {
        self.flops() / self.bytes()
    }
}

/// A whole network as a layer sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerGraph {
    /// Network name.
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<Layer>,
}

impl LayerGraph {
    /// ResNet-50 (ImageNet, 224×224): the stem plus the four bottleneck
    /// stages and the classifier head.
    pub fn resnet50() -> Self {
        use Layer::*;
        Self {
            name: "Resnet-50".into(),
            layers: vec![
                Conv {
                    k: 7,
                    c_in: 3,
                    c_out: 64,
                    out_hw: 112,
                    repeat: 1,
                },
                // Stage 2 (3 bottlenecks at 56×56).
                Conv {
                    k: 1,
                    c_in: 64,
                    c_out: 64,
                    out_hw: 56,
                    repeat: 3,
                },
                Conv {
                    k: 3,
                    c_in: 64,
                    c_out: 64,
                    out_hw: 56,
                    repeat: 3,
                },
                Conv {
                    k: 1,
                    c_in: 64,
                    c_out: 256,
                    out_hw: 56,
                    repeat: 3,
                },
                // Stage 3 (4 bottlenecks at 28×28).
                Conv {
                    k: 1,
                    c_in: 256,
                    c_out: 128,
                    out_hw: 28,
                    repeat: 4,
                },
                Conv {
                    k: 3,
                    c_in: 128,
                    c_out: 128,
                    out_hw: 28,
                    repeat: 4,
                },
                Conv {
                    k: 1,
                    c_in: 128,
                    c_out: 512,
                    out_hw: 28,
                    repeat: 4,
                },
                // Stage 4 (6 bottlenecks at 14×14).
                Conv {
                    k: 1,
                    c_in: 512,
                    c_out: 256,
                    out_hw: 14,
                    repeat: 6,
                },
                Conv {
                    k: 3,
                    c_in: 256,
                    c_out: 256,
                    out_hw: 14,
                    repeat: 6,
                },
                Conv {
                    k: 1,
                    c_in: 256,
                    c_out: 1024,
                    out_hw: 14,
                    repeat: 6,
                },
                // Stage 5 (3 bottlenecks at 7×7).
                Conv {
                    k: 1,
                    c_in: 1024,
                    c_out: 512,
                    out_hw: 7,
                    repeat: 3,
                },
                Conv {
                    k: 3,
                    c_in: 512,
                    c_out: 512,
                    out_hw: 7,
                    repeat: 3,
                },
                Conv {
                    k: 1,
                    c_in: 512,
                    c_out: 2048,
                    out_hw: 7,
                    repeat: 3,
                },
                Fc {
                    inputs: 2048,
                    outputs: 1000,
                },
            ],
        }
    }

    /// VGG-19 (ImageNet): sixteen 3×3 convolutions plus three FC layers.
    pub fn vgg19() -> Self {
        use Layer::*;
        Self {
            name: "VGG-19".into(),
            layers: vec![
                Conv {
                    k: 3,
                    c_in: 3,
                    c_out: 64,
                    out_hw: 224,
                    repeat: 1,
                },
                Conv {
                    k: 3,
                    c_in: 64,
                    c_out: 64,
                    out_hw: 224,
                    repeat: 1,
                },
                Conv {
                    k: 3,
                    c_in: 64,
                    c_out: 128,
                    out_hw: 112,
                    repeat: 1,
                },
                Conv {
                    k: 3,
                    c_in: 128,
                    c_out: 128,
                    out_hw: 112,
                    repeat: 1,
                },
                Conv {
                    k: 3,
                    c_in: 128,
                    c_out: 256,
                    out_hw: 56,
                    repeat: 1,
                },
                Conv {
                    k: 3,
                    c_in: 256,
                    c_out: 256,
                    out_hw: 56,
                    repeat: 3,
                },
                Conv {
                    k: 3,
                    c_in: 256,
                    c_out: 512,
                    out_hw: 28,
                    repeat: 1,
                },
                Conv {
                    k: 3,
                    c_in: 512,
                    c_out: 512,
                    out_hw: 28,
                    repeat: 3,
                },
                Conv {
                    k: 3,
                    c_in: 512,
                    c_out: 512,
                    out_hw: 14,
                    repeat: 4,
                },
                Fc {
                    inputs: 25_088,
                    outputs: 4096,
                },
                Fc {
                    inputs: 4096,
                    outputs: 4096,
                },
                Fc {
                    inputs: 4096,
                    outputs: 1000,
                },
            ],
        }
    }

    /// AlexNet (ImageNet): five convolutions plus three FC layers.
    pub fn alexnet() -> Self {
        use Layer::*;
        Self {
            name: "Alexnet".into(),
            layers: vec![
                Conv {
                    k: 11,
                    c_in: 3,
                    c_out: 96,
                    out_hw: 55,
                    repeat: 1,
                },
                Conv {
                    k: 5,
                    c_in: 96,
                    c_out: 256,
                    out_hw: 27,
                    repeat: 1,
                },
                Conv {
                    k: 3,
                    c_in: 256,
                    c_out: 384,
                    out_hw: 13,
                    repeat: 1,
                },
                Conv {
                    k: 3,
                    c_in: 384,
                    c_out: 384,
                    out_hw: 13,
                    repeat: 1,
                },
                Conv {
                    k: 3,
                    c_in: 384,
                    c_out: 256,
                    out_hw: 13,
                    repeat: 1,
                },
                Fc {
                    inputs: 9216,
                    outputs: 4096,
                },
                Fc {
                    inputs: 4096,
                    outputs: 4096,
                },
                Fc {
                    inputs: 4096,
                    outputs: 1000,
                },
            ],
        }
    }

    /// The small MNIST CNN the paper calibrates the DLA with.
    pub fn mnist() -> Self {
        use Layer::*;
        Self {
            name: "MNIST".into(),
            layers: vec![
                Conv {
                    k: 5,
                    c_in: 1,
                    c_out: 32,
                    out_hw: 28,
                    repeat: 1,
                },
                Conv {
                    k: 5,
                    c_in: 32,
                    c_out: 64,
                    out_hw: 14,
                    repeat: 1,
                },
                Fc {
                    inputs: 3136,
                    outputs: 128,
                },
                Fc {
                    inputs: 128,
                    outputs: 10,
                },
            ],
        }
    }

    /// Total arithmetic operations of one inference.
    pub fn total_flops(&self) -> f64 {
        self.layers.iter().map(Layer::flops).sum()
    }

    /// Total DRAM traffic of one inference, in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.layers.iter().map(Layer::bytes).sum()
    }

    /// Aggregate operational intensity (flops per byte).
    pub fn aggregate_intensity(&self) -> f64 {
        self.total_flops() / self.total_bytes()
    }

    /// Splits the network into coarse execution phases for scheduling: the
    /// convolutional body (high operational intensity, modest bandwidth
    /// demand) followed by the fully connected head (weight streaming at
    /// ~1 flop/byte — effectively a memory-saturating phase). Each group
    /// is returned as an aggregate kernel plus its DRAM traffic in bytes;
    /// groups with no layers are omitted, so a conv-only network yields a
    /// single phase.
    pub fn phase_split(&self) -> Vec<(KernelDesc, f64)> {
        let mut groups: Vec<(KernelDesc, f64)> = Vec::new();
        let mut push = |label: &str, layers: Vec<&Layer>, locality: f64, writes: f64| {
            let bytes: f64 = layers.iter().map(|l| l.bytes()).sum();
            if bytes <= 0.0 {
                return;
            }
            let flops: f64 = layers.iter().map(|l| l.flops()).sum();
            groups.push((
                KernelDesc::new(
                    format!("{}/{label}", self.name),
                    flops / bytes,
                    locality,
                    writes,
                    1.0,
                ),
                bytes,
            ));
        };
        let (convs, fcs): (Vec<&Layer>, Vec<&Layer>) = self
            .layers
            .iter()
            .partition(|l| matches!(l, Layer::Conv { .. }));
        push("conv", convs, 0.9, 0.25);
        // FC weights stream sequentially once: near-perfect row locality,
        // almost no writes.
        push("fc", fcs, 0.95, 0.05);
        groups
    }

    /// The network as a phased workload: each layer is a phase whose
    /// standalone bandwidth demand follows from its intensity on an engine
    /// retiring `flops_per_mem_cycle`, weighted by its estimated time share
    /// `max(compute time, memory time)`.
    ///
    /// # Panics
    ///
    /// Panics if `flops_per_mem_cycle` or `peak_bytes_per_cycle` is not
    /// positive.
    pub fn to_phased(&self, flops_per_mem_cycle: f64, peak_bytes_per_cycle: f64) -> PhasedWorkload {
        assert!(flops_per_mem_cycle > 0.0, "compute rate must be positive");
        assert!(peak_bytes_per_cycle > 0.0, "memory rate must be positive");
        let phases: Vec<(f64, f64)> = self
            .layers
            .iter()
            .map(|layer| {
                let compute_cycles = layer.flops() / flops_per_mem_cycle;
                let memory_cycles = layer.bytes() / peak_bytes_per_cycle;
                let time = compute_cycles.max(memory_cycles);
                let demand_bpc = layer.bytes() / time.max(f64::MIN_POSITIVE);
                (demand_bpc, time)
            })
            .collect();
        PhasedWorkload::new(self.name.clone(), &phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_magnitudes_are_right() {
        let g = LayerGraph::resnet50();
        // ~6-8 Gflop per 224x224 inference (the canonical figure is
        // 7.7 Gflop; shortcut convolutions are not modelled).
        let gflop = g.total_flops() / 1e9;
        assert!((5.0..10.0).contains(&gflop), "ResNet-50 {gflop:.1} Gflop");
        // ~25 M parameters -> ~70 MB fp16 weights + activations.
        let mb = g.total_bytes() / 1e6;
        assert!((40.0..120.0).contains(&mb), "ResNet-50 traffic {mb:.0} MB");
    }

    #[test]
    fn vgg19_is_heavier_than_resnet() {
        // VGG-19 is ~19.6 Gflop — 2.5x ResNet-50.
        assert!(LayerGraph::vgg19().total_flops() > 2.0 * LayerGraph::resnet50().total_flops());
    }

    #[test]
    fn alexnet_is_small_but_fc_heavy() {
        let a = LayerGraph::alexnet();
        assert!((1.5..3.5).contains(&(a.total_flops() / 1e9)), "~2.3 Gflop");
        // Its three FC layers dominate the traffic, dragging the aggregate
        // intensity far below the conv-dominated networks'.
        assert!(a.aggregate_intensity() < LayerGraph::resnet50().aggregate_intensity());
    }

    #[test]
    fn conv_layers_have_much_higher_intensity_than_fc() {
        let conv = Layer::Conv {
            k: 3,
            c_in: 256,
            c_out: 256,
            out_hw: 28,
            repeat: 1,
        };
        let fc = Layer::Fc {
            inputs: 4096,
            outputs: 4096,
        };
        assert!(conv.ops_per_byte() > 50.0 * fc.ops_per_byte());
        // FC layers stream weights once: intensity ≈ 1 flop/byte.
        assert!((0.5..2.0).contains(&fc.ops_per_byte()));
    }

    #[test]
    fn aggregate_intensities_match_the_calibrated_proxies_in_magnitude() {
        // The conv-dominated networks' derived aggregates agree with the
        // hand-calibrated DnnModel intensities (88–108 ops/byte) within a
        // small factor; FC-heavy AlexNet diverges because fp16 weight
        // streaming dominates its byte count (batch-1 inference), which the
        // DLA hides behind weight compression — hence its calibrated proxy
        // sits higher.
        for (graph, lo, hi) in [
            (LayerGraph::resnet50(), 40.0, 250.0),
            (LayerGraph::vgg19(), 40.0, 400.0),
            (LayerGraph::alexnet(), 10.0, 60.0),
        ] {
            let i = graph.aggregate_intensity();
            assert!(
                (lo..hi).contains(&i),
                "{}: aggregate intensity {i:.0} outside [{lo}, {hi}]",
                graph.name
            );
        }
    }

    #[test]
    fn phased_form_has_one_phase_per_layer() {
        let g = LayerGraph::mnist();
        let w = g.to_phased(1339.0, 64.0);
        assert_eq!(w.phases().len(), g.layers.len());
        let total_weight: f64 = w.phases().iter().map(|p| p.weight).sum();
        assert!((total_weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn phase_split_separates_conv_from_fc() {
        let g = LayerGraph::vgg19();
        let phases = g.phase_split();
        assert_eq!(phases.len(), 2);
        let (conv, conv_bytes) = &phases[0];
        let (fc, fc_bytes) = &phases[1];
        assert!(conv.name.ends_with("/conv"));
        assert!(fc.name.ends_with("/fc"));
        // The conv body is compute-dense; the FC head streams weights.
        assert!(conv.ops_per_byte > 50.0 * fc.ops_per_byte);
        assert!((0.5..3.0).contains(&fc.ops_per_byte));
        // The two groups account for all traffic.
        assert!((conv_bytes + fc_bytes - g.total_bytes()).abs() < 1.0);
    }

    #[test]
    fn repeats_scale_flops_linearly() {
        let one = Layer::Conv {
            k: 3,
            c_in: 64,
            c_out: 64,
            out_hw: 56,
            repeat: 1,
        };
        let three = Layer::Conv {
            k: 3,
            c_in: 64,
            c_out: 64,
            out_hw: 56,
            repeat: 3,
        };
        assert!((three.flops() / one.flops() - 3.0).abs() < 1e-12);
        assert!((three.bytes() / one.bytes() - 3.0).abs() < 1e-12);
    }
}
