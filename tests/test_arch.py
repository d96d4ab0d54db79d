"""Architecture builders: depth formula, parameter counts, structure."""

import numpy as np
import pytest

from bnn import arch
from bnn.layers import BatchNorm, QConv2d, QDense

# Frozen parameter counts, computed once from the builders and checked
# against the published totals in the acceptance suite.
LENET_PARAMS = 1_113_066
RESNET18_PARAMS = 11_687_720
DENSENET21_PARAMS = 11_389_224


class TestDepthFormula:
    @pytest.mark.parametrize("b", range(1, 17))
    def test_depth_is_8b_plus_5(self, b):
        assert arch.densenet_depth(b) == 8 * b + 5

    def test_known_family_members(self):
        assert arch.densenet_depth(1) == 13
        assert arch.densenet_depth(2) == 21
        assert arch.densenet_depth(4) == 37
        assert arch.densenet_depth(8) == 69

    def test_invalid_b(self):
        with pytest.raises(ValueError):
            arch.densenet_depth(0)

    def test_counted_layers_match_graph(self):
        # stem + all convs + classifier must equal the formula
        for b in (1, 2):
            g = arch.build_densenet(arch.DenseNetSpec(k=16, b=b, num_classes=10),
                                    preset="cifar")
            counted = sum(
                1 for layer in g.layers()
                if isinstance(layer, (QConv2d, QDense))
            )
            assert counted == arch.densenet_depth(b)


class TestParamCounts:
    def test_lenet(self):
        g = arch.build_lenet()
        assert arch.count_params(g) == LENET_PARAMS

    def test_resnet18(self):
        g = arch.build_resnet(depth=18)
        assert arch.count_params(g) == RESNET18_PARAMS

    def test_densenet21(self):
        g = arch.build_densenet(arch.DenseNetSpec(k=128, b=2))
        assert arch.count_params(g) == DENSENET21_PARAMS

    def test_count_is_storage_independent(self):
        g = arch.build_lenet(binary=False)
        # latent binary weights count like their fp counterparts
        assert arch.count_params(g) == arch.count_params(arch.build_lenet())

    def test_transition_width(self):
        assert arch.transition_width(128, 0.5) == 352
        assert arch.transition_width(32, 0.5) == 88


class TestDenseNetTradeoff:
    def test_param_ordering_and_shrink(self):
        configs = [(256, 1), (128, 2), (64, 4), (32, 8)]
        counts = [
            arch.count_params(
                arch.build_densenet(arch.DenseNetSpec(k=k, b=b))
            )
            for k, b in configs
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] <= 0.75 * counts[0]


class TestStructure:
    def test_lenet_layout(self):
        g = arch.build_lenet()
        layers = g.layers()
        # stem conv and head stay full precision; inner conv+dense binary
        assert isinstance(layers[0], QConv2d) and not layers[0].binary
        head = layers[-1]
        assert isinstance(head, QDense) and not head.binary
        assert head.bias is not None
        assert sum(isinstance(l, (QConv2d, QDense)) and l.binary for l in layers) == 2

    def test_lenet_fp_variant_has_no_qlayers(self):
        layers = arch.build_lenet(binary=False).layers()
        assert sum(isinstance(l, (QConv2d, QDense)) and l.binary for l in layers) == 0

    def test_resnet18_qlayer_count(self):
        # 2 convs per basic block x 8 blocks + 3 projection shortcuts
        layers = arch.build_resnet(depth=18).layers()
        assert sum(isinstance(l, (QConv2d, QDense)) and l.binary for l in layers) == 19

    def test_first_conv_full_precision_everywhere(self):
        for g in (
            arch.build_lenet(),
            arch.build_resnet(depth=18, preset="cifar", num_classes=10),
            arch.build_densenet(arch.DenseNetSpec(k=16, b=1, num_classes=10),
                                preset="cifar"),
        ):
            first = g.layers()[0]
            assert isinstance(first, QConv2d)
            assert not first.binary
            assert not first.cfg.binarize_input

    def test_block_order_bn_before_conv(self):
        g = arch.build_resnet(depth=18, preset="cifar", num_classes=10)
        layers = g.layers()
        idx = next(i for i, l in enumerate(layers)
                   if isinstance(l, QConv2d) and l.binary)
        assert isinstance(layers[idx - 1], BatchNorm)


class TestForwardShapes:
    def test_lenet_forward(self):
        g = arch.build_lenet(num_classes=10)
        out = g.forward(np.zeros((2, 1, 28, 28), dtype=np.float32))
        assert out.value.shape == (2, 10)

    def test_resnet_cifar_forward(self):
        g = arch.build_resnet(depth=18, preset="cifar", num_classes=10)
        out = g.forward(np.zeros((2, 3, 32, 32), dtype=np.float32))
        assert out.value.shape == (2, 10)

    def test_densenet_cifar_forward(self):
        g = arch.build_densenet(
            arch.DenseNetSpec(k=8, b=1, num_classes=10), preset="cifar"
        )
        out = g.forward(np.zeros((2, 3, 32, 32), dtype=np.float32))
        assert out.value.shape == (2, 10)

    def test_bottleneck_block_variant(self):
        g = arch.build_densenet(
            arch.DenseNetSpec(k=8, b=1, num_classes=10), preset="cifar",
            bottleneck=True,
        )
        out = g.forward(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert out.value.shape == (1, 10)

    def test_resnet_bottleneck_depths(self):
        g = arch.build_resnet(depth=26, preset="cifar", num_classes=10)
        out = g.forward(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert out.value.shape == (1, 10)

    def test_wrong_input_shape(self):
        g = arch.build_lenet()
        with pytest.raises(Exception):
            g.forward(np.zeros((1, 3, 28, 28), dtype=np.float32))


class TestBuildModel:
    def test_lenet_spec(self):
        g = arch.build_model("lenet")
        assert g.build_args["model"] == "lenet"
        assert g.num_classes == 10

    def test_densenet_spec(self):
        g = arch.build_model("densenet:k=16,b=1", num_classes=10,
                             preset="cifar")
        assert g.build_args["k"] == 16

    def test_resnet_width(self):
        g = arch.build_model("resnet34:width=wide")
        assert g.build_args["width"] == "wide"

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            arch.build_model("alexnet")

    def test_densenet_missing_args(self):
        with pytest.raises(ValueError):
            arch.build_model("densenet")

    def test_bad_option(self):
        with pytest.raises(ValueError):
            arch.build_model("resnet18:depth=20")
        with pytest.raises(ValueError):
            arch.build_model("densenet:k=16,b=1,oops=3")
        with pytest.raises(ValueError):
            arch.build_model("resnet99")

    @pytest.mark.parametrize("classes", [1, 0, -3])
    def test_resnet_rejects_fewer_than_two_classes(self, classes):
        with pytest.raises(ValueError, match="num_classes must be >= 2"):
            arch.build_resnet(num_classes=classes, preset="cifar")

    def test_summary_runs(self):
        text = arch.summary(arch.build_lenet())
        assert "total params" in text
        assert "packed_binary" in text


def test_spec_validation():
    with pytest.raises(ValueError):
        arch.DenseNetSpec(k=0, b=1)
    with pytest.raises(ValueError):
        arch.DenseNetSpec(k=8, b=1, reduction=0.0)
    with pytest.raises(ValueError):
        arch.DenseNetSpec(k=8, b=1, num_classes=1)
    with pytest.raises(ValueError):
        arch.build_resnet(depth=20)
    with pytest.raises(ValueError):
        arch.build_resnet(width="huge")
    with pytest.raises(ValueError):
        arch.build_lenet(num_classes=1)
