//! A zoo of ready-made small networks for tests, examples and benches.
//!
//! Every integration test, serving example and bench used to hand-roll
//! its own "tiny ResNet" layer inventory; multi-tenant serving needs
//! *several distinct* small networks, so the construction lives here
//! once. The tiny ResNets run at **16×16 input** (stem stride 2 to 8×8,
//! pooled entry to 4×4) and follow the ResNet naming convention
//! [`crate::lower`] recognizes, so they lower, cost and serve exactly
//! like the full-size inventories. [`epitome_layer_network`] wraps a
//! single epitome layer as a one-stage network, which is how one layer
//! is served.

use crate::lower::{LayerWeights, NetworkWeights};
use crate::network::{Network, OperatorChoice};
use crate::resnet::{Backbone, LayerInfo};
use epim_core::{Epitome, EpitomeDesigner, EpitomeError, EpitomeSpec};

fn layer(name: &str, conv: epim_core::ConvShape, res: usize) -> LayerInfo {
    LayerInfo {
        name: name.to_string(),
        conv,
        out_h: res,
        out_w: res,
    }
}

/// A tiny ResNet-style backbone at 16×16 input: a `stem` -channel stem
/// (16×16 → 8×8), the 3×3/2 entry pool (8×8 → 4×4), one
/// projection-shortcut bottleneck block and one identity block of inner
/// width `mid` (output channels `4 * mid`), and a `classes`-way
/// classifier.
///
/// Distinct `(stem, mid, classes)` triples give structurally distinct
/// networks — the building block for multi-tenant fleets. `(8, 4, 10)`
/// reproduces the runtime test backbone, `(8, 8, 10)` the serving
/// example/bench backbone.
pub fn tiny_resnet_backbone(stem: usize, mid: usize, classes: usize) -> Backbone {
    use epim_core::ConvShape;
    let out = 4 * mid;
    Backbone {
        name: format!("tiny-resnet-s{stem}m{mid}c{classes}"),
        layers: vec![
            layer("stem.conv1", ConvShape::new(stem, 3, 3, 3), 8),
            layer("stage1.block0.conv1", ConvShape::new(mid, stem, 1, 1), 4),
            layer("stage1.block0.conv2", ConvShape::new(mid, mid, 3, 3), 4),
            layer("stage1.block0.conv3", ConvShape::new(out, mid, 1, 1), 4),
            layer(
                "stage1.block0.downsample",
                ConvShape::new(out, stem, 1, 1),
                4,
            ),
            layer("stage1.block1.conv1", ConvShape::new(mid, out, 1, 1), 4),
            layer("stage1.block1.conv2", ConvShape::new(mid, mid, 3, 3), 4),
            layer("stage1.block1.conv3", ConvShape::new(out, mid, 1, 1), 4),
            layer("fc", ConvShape::new(classes, out, 1, 1), 1),
        ],
    }
}

/// The [`tiny_resnet_backbone`] with both 3×3 convolutions replaced by
/// **one shared epitome spec** (halved matrix rows, `mid / 2` output
/// channels in the epitome) — the repeat is what makes a plan cache pay
/// off across layers, and two networks of equal `mid` share the *same*
/// spec, which is what lets multi-tenant serving share one compiled plan
/// across tenants.
///
/// # Errors
///
/// Propagates epitome design errors (an inner width too small to
/// compress).
pub fn tiny_epitome_network(
    stem: usize,
    mid: usize,
    classes: usize,
) -> Result<(Network, EpitomeSpec), EpitomeError> {
    let bb = tiny_resnet_backbone(stem, mid, classes);
    let conv = bb.layers[2].conv;
    let spec = EpitomeDesigner::new(16, 16).design(
        conv,
        conv.matrix_rows() / 2,
        (conv.cout / 2).max(1),
    )?;
    let mut net = Network::baseline(bb);
    net.set_choice(2, OperatorChoice::Epitome(spec.clone()))?;
    net.set_choice(6, OperatorChoice::Epitome(spec.clone()))?;
    Ok((net, spec))
}

/// One epitome layer as a network: a one-layer plain chain whose only
/// layer is `epitome`'s convolution at stride 1 with "same" padding over
/// `h × w` inputs, with `epitome` bound as its weights. It lowers to
/// exactly one epitome stage (odd kernels only: an even kernel has no
/// same padding, so lowering rejects it).
pub fn epitome_layer_network(
    epitome: &Epitome,
    (h, w): (usize, usize),
) -> (Network, NetworkWeights) {
    let spec = epitome.spec();
    let backbone = Backbone {
        name: format!("epitome-layer-{h}x{w}"),
        layers: vec![LayerInfo {
            name: "epitome".to_string(),
            conv: spec.conv(),
            out_h: h,
            out_w: w,
        }],
    };
    let mut net = Network::baseline(backbone);
    net.set_choice(0, OperatorChoice::Epitome(spec.clone()))
        .expect("a spec matches its own convolution");
    let mut weights = NetworkWeights::default();
    weights.set(0, LayerWeights::Epitome(epitome.clone()));
    (net, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_backbones_lower_and_are_distinct() {
        let a = tiny_resnet_backbone(8, 4, 10);
        let b = tiny_resnet_backbone(8, 8, 12);
        assert_ne!(a, b);
        let prog = Network::baseline(a).lower(16, 16).unwrap();
        assert_eq!(prog.input_shape(), &[3, 16, 16]);
        assert_eq!(prog.output_shape(), &[10]);
        let prog = Network::baseline(b).lower(16, 16).unwrap();
        assert_eq!(prog.output_shape(), &[12]);
    }

    #[test]
    fn epitome_layer_network_lowers_to_one_same_padded_stage() {
        use crate::lower::StageOp;
        use epim_core::{ConvShape, EpitomeShape};
        let spec =
            EpitomeSpec::new(ConvShape::new(8, 4, 3, 3), EpitomeShape::new(4, 4, 2, 2)).unwrap();
        let epi =
            Epitome::from_tensor(spec.clone(), epim_tensor::Tensor::zeros(&[4, 4, 2, 2])).unwrap();
        let (net, weights) = epitome_layer_network(&epi, (8, 6));
        let prog = net.lower(8, 6).unwrap();
        assert_eq!(prog.input_shape(), &[4, 8, 6]);
        assert_eq!(prog.output_shape(), &[8, 8, 6]);
        let [stage] = prog.stages() else {
            panic!("one stage expected, got {}", prog.stages().len());
        };
        let StageOp::Epitome { spec: s, cfg, .. } = &stage.op else {
            panic!("expected an epitome stage, got {:?}", stage.op);
        };
        assert_eq!(s, &spec);
        assert_eq!((cfg.stride, cfg.padding), (1, 1));
        assert!(weights.epitome(0, &spec, "epitome").is_ok());
    }

    #[test]
    fn equal_mid_networks_share_a_spec_distinct_mids_do_not() {
        let (net_a, spec_a) = tiny_epitome_network(8, 4, 10).unwrap();
        let (net_b, spec_b) = tiny_epitome_network(8, 4, 16).unwrap();
        let (_, spec_c) = tiny_epitome_network(8, 8, 10).unwrap();
        assert_eq!(spec_a, spec_b, "equal inner widths must share the spec");
        assert_ne!(spec_a, spec_c);
        assert_ne!(net_a, net_b, "different class counts are distinct networks");
        // Both epitome layers of one network share the one spec.
        let prog = net_a.lower(16, 16).unwrap();
        assert_eq!(prog.epitome_specs(), vec![&spec_a]);
    }
}
