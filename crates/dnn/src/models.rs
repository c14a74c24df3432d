//! The eight DNN models of Table 2.
//!
//! Each model is a list of [`LayerSpec`]s with realistic GEMM shapes for
//! its architecture and the per-model average sparsities of Table 2
//! (deterministic per-layer jitter mimics the published min/max spread).
//! The nine representative layers of Table 6 are pinned at their exact
//! published indices, dimensions and sparsities.
//!
//! Scaling note: fully-connected and transformer
//! matmuls are uniformly scaled (e.g. DistilBERT hidden 768 → 256,
//! sequence 128 → 64) so the complete suite simulates in minutes; the
//! convolutional shapes — which produce the operand-size-to-cache ratios
//! the dataflow comparison hinges on — are kept at published scale.

use crate::LayerSpec;
use serde::{Deserialize, Serialize};

/// Application domain (Table 2's "Appl" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Computer vision (CV).
    ComputerVision,
    /// Object recognition (OR).
    ObjectRecognition,
    /// Natural language processing (NLP).
    Nlp,
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ComputerVision => write!(f, "CV"),
            Self::ObjectRecognition => write!(f, "OR"),
            Self::Nlp => write!(f, "NLP"),
        }
    }
}

/// One DNN model: an ordered list of SpMSpM layer problems.
///
/// Serialize-only: the `&'static str` identifiers cannot be deserialized
/// from owned JSON text.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DnnModel {
    /// Full name ("Resnets-50").
    pub name: &'static str,
    /// Table 2 short code ("R").
    pub short: &'static str,
    /// Application domain.
    pub domain: Domain,
    /// The layers, in execution order.
    pub layers: Vec<LayerSpec>,
}

/// Deterministic per-layer sparsity jitter in `[-6, +6]` percentage points,
/// mimicking the layer-to-layer spread of the published models.
fn jitter(index: u32) -> f64 {
    // Small multiplicative hash; spread over [-6, +6].
    let h = index.wrapping_mul(0x9e37_79b9).rotate_left(13) % 13;
    h as f64 - 6.0
}

fn clamp_sp(sp: f64) -> f64 {
    sp.clamp(0.0, 99.5)
}

/// Builds a layer list from `(m, k, n)` shapes with jittered sparsities.
fn layers_from_shapes(
    shapes: &[(u32, u32, u32)],
    names: impl Fn(u32) -> String,
    sp_a: f64,
    sp_b: f64,
) -> Vec<LayerSpec> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, k, n))| {
            let i = i as u32;
            LayerSpec::new(
                i,
                names(i),
                m,
                k,
                n,
                clamp_sp(sp_a + jitter(i)),
                clamp_sp(sp_b + jitter(i.wrapping_add(101))),
            )
        })
        .collect()
}

/// Pins a layer to exact Table 6 dimensions and sparsities.
#[allow(clippy::too_many_arguments)] // mirrors Table 6's column list
fn pin_layer(
    model: &mut DnnModel,
    index: usize,
    id: &str,
    m: u32,
    k: u32,
    n: u32,
    sp_a: f64,
    sp_b: f64,
) {
    let spec = &mut model.layers[index];
    *spec = LayerSpec::new(index as u32, id, m, k, n, sp_a, sp_b);
}

impl DnnModel {
    /// AlexNet (A): 7 layers, CV, spA ≈ 70%, spB ≈ 48%.
    pub fn alexnet() -> Self {
        let shapes = [
            (64, 363, 3025),
            (192, 1600, 729),
            (384, 1728, 121), // A2 pinned below
            (256, 3456, 169),
            (256, 2304, 169),
            (512, 2304, 64), // fc6, scaled (batch 64)
            (512, 512, 64),  // fc7, scaled
        ];
        let mut model = Self {
            name: "Alexnet",
            short: "A",
            domain: Domain::ComputerVision,
            layers: layers_from_shapes(&shapes, |i| format!("conv/fc{i}"), 70.0, 48.0),
        };
        pin_layer(&mut model, 2, "A2", 384, 1728, 121, 70.0, 54.0);
        model
    }

    /// SqueezeNet (S): 26 layers, CV, spA ≈ 70%, spB ≈ 31%.
    pub fn squeezenet() -> Self {
        let mut shapes: Vec<(u32, u32, u32)> = vec![(64, 147, 2916)]; // conv1
                                                                      // Eight fire modules: (squeeze 1x1, expand 1x1, expand 3x3).
        let fires: [(u32, u32, u32); 8] = [
            // (squeeze, expand, spatial)
            (16, 64, 2916),
            (16, 64, 2916),
            (32, 128, 729),
            (32, 128, 729),
            (48, 192, 169),
            (48, 192, 169),
            (64, 256, 169),
            (64, 256, 169),
        ];
        let mut c_in = 64;
        for &(s, e, n) in &fires {
            shapes.push((s, c_in, n)); // squeeze 1x1
            shapes.push((e, s, n)); // expand 1x1
            shapes.push((e, 9 * s, n)); // expand 3x3
            c_in = 2 * e;
        }
        shapes.push((100, 512, 169)); // conv10 (scaled classifier)
        let mut model = Self {
            name: "Squeezenet",
            short: "S",
            domain: Domain::ComputerVision,
            layers: layers_from_shapes(&shapes, |i| format!("fire{i}"), 70.0, 31.0),
        };
        pin_layer(&mut model, 5, "SQ5", 64, 16, 2916, 68.0, 11.0);
        pin_layer(&mut model, 11, "SQ11", 128, 32, 729, 70.0, 10.0);
        model
    }

    /// VGG-16 (V): 8 layers, CV, spA ≈ 90%, spB ≈ 80%.
    pub fn vgg16() -> Self {
        let shapes = [
            (128, 576, 12100), // V0 pinned below
            (128, 1152, 3025),
            (256, 1152, 3025),
            (256, 2304, 729),
            (512, 2304, 729),
            (512, 4608, 144),
            (512, 4608, 144),
            (512, 4608, 144), // V7 pinned below
        ];
        let mut model = Self {
            name: "VGG-16",
            short: "V",
            domain: Domain::ComputerVision,
            layers: layers_from_shapes(&shapes, |i| format!("conv{i}"), 90.0, 80.0),
        };
        pin_layer(&mut model, 0, "V0", 128, 576, 12100, 90.0, 61.0);
        pin_layer(&mut model, 7, "V7", 512, 4608, 144, 90.0, 94.0);
        model
    }

    /// ResNet-50 (R): 54 layers, CV, spA ≈ 89%, spB ≈ 52%.
    pub fn resnet50() -> Self {
        let mut shapes: Vec<(u32, u32, u32)> = vec![(64, 147, 3136)]; // conv1
                                                                      // (reduce 1x1, 3x3, expand 1x1) bottlenecks over four stages.
        let stages: [(u32, u32, u32, u32); 4] = [
            // (blocks, width, in_channels, spatial)
            (3, 64, 256, 3136),
            (4, 128, 512, 784),
            (6, 256, 1024, 196),
            (3, 512, 2048, 49),
        ];
        for &(blocks, w, c_out, n) in &stages {
            for _ in 0..blocks {
                shapes.push((w, c_out, n)); // 1x1 reduce
                shapes.push((w, 9 * w, n)); // 3x3
                shapes.push((c_out, w, n)); // 1x1 expand
            }
        }
        shapes.push((512, 2048, 16)); // pooled fc (scaled)
                                      // Downsample projections at each stage boundary bring the count to
                                      // the published 54.
        shapes.push((256, 64, 3136));
        shapes.push((512, 256, 784));
        shapes.push((1024, 512, 196));
        shapes.push((2048, 1024, 49));
        debug_assert_eq!(shapes.len(), 54);
        let mut model = Self {
            name: "Resnets-50",
            short: "R",
            domain: Domain::ComputerVision,
            layers: layers_from_shapes(&shapes, |i| format!("res{i}"), 89.0, 52.0),
        };
        pin_layer(&mut model, 4, "R4", 256, 64, 3136, 88.0, 9.0);
        pin_layer(&mut model, 6, "R6", 64, 576, 2916, 89.0, 53.0);
        model
    }

    /// SSD-ResNets (S-R): 37 layers, OR, spA ≈ 89%, spB ≈ 49%.
    pub fn ssd_resnets() -> Self {
        let mut shapes: Vec<(u32, u32, u32)> = vec![(64, 147, 5329)];
        // Backbone: reduced ResNet (9 bottlenecks).
        let stages: [(u32, u32, u32, u32); 3] =
            [(3, 64, 256, 5329), (3, 128, 512, 1369), (3, 256, 1024, 361)];
        for &(blocks, w, c_out, n) in &stages {
            for _ in 0..blocks {
                shapes.push((w, c_out, n));
                shapes.push((w, 9 * w, n));
                shapes.push((c_out, w, n));
            }
        }
        // Detection heads over multiple scales (last scale shares one
        // combined head, matching the published 37-layer count).
        for &(c, n) in &[(512u32, 361u32), (512, 100), (256, 100), (256, 25)] {
            shapes.push((24, c, n)); // class head (scaled)
            shapes.push((16, c, n)); // box head (scaled)
        }
        shapes.push((40, 256, 25)); // combined final head
        debug_assert_eq!(shapes.len(), 37);
        let mut model = Self {
            name: "SSD-Resnets",
            short: "S-R",
            domain: Domain::ObjectRecognition,
            layers: layers_from_shapes(&shapes, |i| format!("ssd_r{i}"), 89.0, 49.0),
        };
        pin_layer(&mut model, 3, "S-R3", 64, 576, 5329, 89.0, 46.0);
        model
    }

    /// SSD-MobileNets (S-M): 29 layers, OR, spA ≈ 74%, spB ≈ 35%.
    pub fn ssd_mobilenets() -> Self {
        // Pointwise (1x1) convolutions dominate MobileNet GEMMs.
        let mut shapes: Vec<(u32, u32, u32)> = vec![(32, 27, 5329)];
        let pw: [(u32, u32, u32); 13] = [
            (64, 32, 5329),
            (128, 64, 1369),
            (128, 128, 1369),
            (256, 128, 361),
            (256, 256, 361),
            (512, 256, 100),
            (512, 512, 100),
            (512, 512, 100),
            (512, 512, 100),
            (512, 512, 100),
            (512, 512, 100),
            (1024, 512, 25),
            (1024, 1024, 25),
        ];
        shapes.extend_from_slice(&pw);
        // Feature pyramid + heads.
        for &(c, n) in &[(512u32, 100u32), (256, 25), (256, 25), (128, 9), (128, 9)] {
            shapes.push((24, c, n));
            shapes.push((16, c, n));
        }
        shapes.extend_from_slice(&[
            (256, 512, 25),
            (128, 256, 9),
            (64, 128, 9),
            (64, 64, 9),
            (32, 64, 9),
        ]);
        debug_assert_eq!(shapes.len(), 29);
        Self {
            name: "SSD-Mobilenets",
            short: "S-M",
            domain: Domain::ObjectRecognition,
            layers: layers_from_shapes(&shapes, |i| format!("ssd_m{i}"), 74.0, 35.0),
        }
    }

    /// DistilBERT (DB): 36 layers, NLP, spA ≈ 50%, spB ≈ 0.04% (dense
    /// activations). Hidden 768 → 256 and sequence 128 → 64, uniformly
    /// scaled for simulation tractability.
    pub fn distilbert() -> Self {
        let mut shapes: Vec<(u32, u32, u32)> = Vec::new();
        for _ in 0..6 {
            shapes.push((256, 256, 64)); // Wq
            shapes.push((256, 256, 64)); // Wk
            shapes.push((256, 256, 64)); // Wv
            shapes.push((256, 256, 64)); // attn out
            shapes.push((1024, 256, 64)); // ffn up
            shapes.push((256, 1024, 64)); // ffn down
        }
        debug_assert_eq!(shapes.len(), 36);
        Self {
            name: "DistilBERT",
            short: "DB",
            domain: Domain::Nlp,
            layers: layers_from_shapes(&shapes, |i| format!("db{i}"), 50.0, 0.04),
        }
    }

    /// MobileBERT (MB): 316 layers, NLP, spA ≈ 50%, spB ≈ 11%. The tiny
    /// bottleneck width (128) and short sequence are what make Gustavson's
    /// win every layer in the paper's Fig. 1.
    pub fn mobilebert() -> Self {
        let mut shapes: Vec<(u32, u32, u32)> = vec![
            (128, 384, 8), // embedding projections
            (128, 128, 8),
            (128, 128, 8),
            (128, 128, 8),
        ];
        // 24 transformer blocks x 13 matmuls (bottleneck in/out, attention,
        // four stacked FFNs).
        let block: [(u32, u32, u32); 13] = [
            (128, 512, 8), // bottleneck in
            (128, 128, 8), // Wq
            (128, 128, 8), // Wk
            (128, 128, 8), // Wv
            (128, 128, 8), // attn out
            (512, 128, 8), // ffn1 up
            (128, 512, 8), // ffn1 down
            (512, 128, 8), // ffn2 up
            (128, 512, 8), // ffn2 down
            (512, 128, 8), // ffn3 up
            (128, 512, 8), // ffn3 down
            (512, 128, 8), // ffn4 up
            (512, 128, 8), // bottleneck out
        ];
        for _ in 0..24 {
            shapes.extend_from_slice(&block);
        }
        debug_assert_eq!(shapes.len(), 316);
        let mut model = Self {
            name: "MobileBERT",
            short: "MB",
            domain: Domain::Nlp,
            layers: layers_from_shapes(&shapes, |i| format!("mb{i}"), 50.0, 11.0),
        };
        pin_layer(&mut model, 215, "MB215", 128, 512, 8, 50.0, 0.0);
        model
    }

    /// Total layer count.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// The full eight-model suite in Table 2 order.
pub fn suite() -> Vec<DnnModel> {
    vec![
        DnnModel::alexnet(),
        DnnModel::squeezenet(),
        DnnModel::vgg16(),
        DnnModel::resnet50(),
        DnnModel::ssd_resnets(),
        DnnModel::ssd_mobilenets(),
        DnnModel::distilbert(),
        DnnModel::mobilebert(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_counts_match_table2() {
        let counts: Vec<(&str, usize)> =
            suite().iter().map(|m| (m.short, m.num_layers())).collect();
        assert_eq!(
            counts,
            vec![
                ("A", 7),
                ("S", 26),
                ("V", 8),
                ("R", 54),
                ("S-R", 37),
                ("S-M", 29),
                ("DB", 36),
                ("MB", 316),
            ]
        );
    }

    #[test]
    fn layer_indices_are_sequential() {
        for model in suite() {
            for (i, layer) in model.layers.iter().enumerate() {
                assert_eq!(layer.index, i as u32, "{} layer {i}", model.name);
            }
        }
    }

    #[test]
    fn table6_layers_are_pinned_in_their_models() {
        let sq = DnnModel::squeezenet();
        assert_eq!(
            (sq.layers[5].m, sq.layers[5].k, sq.layers[5].n),
            (64, 16, 2916)
        );
        assert_eq!(
            (sq.layers[11].m, sq.layers[11].k, sq.layers[11].n),
            (128, 32, 729)
        );
        let r = DnnModel::resnet50();
        assert_eq!(
            (r.layers[4].m, r.layers[4].k, r.layers[4].n),
            (256, 64, 3136)
        );
        assert_eq!(
            (r.layers[6].m, r.layers[6].k, r.layers[6].n),
            (64, 576, 2916)
        );
        let sr = DnnModel::ssd_resnets();
        assert_eq!(
            (sr.layers[3].m, sr.layers[3].k, sr.layers[3].n),
            (64, 576, 5329)
        );
        let v = DnnModel::vgg16();
        assert_eq!(
            (v.layers[0].m, v.layers[0].k, v.layers[0].n),
            (128, 576, 12100)
        );
        assert_eq!(
            (v.layers[7].m, v.layers[7].k, v.layers[7].n),
            (512, 4608, 144)
        );
        let a = DnnModel::alexnet();
        assert_eq!(
            (a.layers[2].m, a.layers[2].k, a.layers[2].n),
            (384, 1728, 121)
        );
        let mb = DnnModel::mobilebert();
        assert_eq!(
            (mb.layers[215].m, mb.layers[215].k, mb.layers[215].n),
            (128, 512, 8)
        );
    }

    #[test]
    fn sparsities_hover_around_table2_averages() {
        for (model, want_a, want_b) in [
            (DnnModel::alexnet(), 70.0, 48.0),
            (DnnModel::vgg16(), 90.0, 80.0),
            (DnnModel::distilbert(), 50.0, 0.04),
        ] {
            let avg_a: f64 =
                model.layers.iter().map(|l| l.sp_a).sum::<f64>() / model.num_layers() as f64;
            let avg_b: f64 =
                model.layers.iter().map(|l| l.sp_b).sum::<f64>() / model.num_layers() as f64;
            assert!(
                (avg_a - want_a).abs() < 8.0,
                "{}: avg spA {avg_a}",
                model.name
            );
            assert!(
                (avg_b - want_b).abs() < 10.0,
                "{}: avg spB {avg_b}",
                model.name
            );
        }
    }

    #[test]
    fn domains_match_table2() {
        let domains: Vec<Domain> = suite().iter().map(|m| m.domain).collect();
        assert_eq!(
            domains,
            vec![
                Domain::ComputerVision,
                Domain::ComputerVision,
                Domain::ComputerVision,
                Domain::ComputerVision,
                Domain::ObjectRecognition,
                Domain::ObjectRecognition,
                Domain::Nlp,
                Domain::Nlp,
            ]
        );
    }

    #[test]
    fn jitter_is_bounded() {
        for i in 0..500 {
            let j = jitter(i);
            assert!((-6.0..=6.0).contains(&j));
        }
    }

    #[test]
    fn every_layer_materializes() {
        // Spot-check the smallest model end to end.
        let model = DnnModel::alexnet();
        for layer in &model.layers {
            let m = layer.materialize(1);
            assert_eq!(m.a.rows(), layer.m);
            assert_eq!(m.b.cols(), layer.n);
        }
    }
}
