package models

import "scaffe/internal/layers"

// The small models are defined once, as a name, an input shape and a
// list of layers not yet set up. Build* hands the list to layers.NewNet,
// which allocates and initializes it; ByName only walks its geometry.

// leNet is the classic LeNet for 1×28×28 (MNIST-shaped) inputs: ~431k
// parameters.
func leNet() (string, layers.Shape, []layers.Layer) {
	return "lenet", layers.Shape{C: 1, H: 28, W: 28}, []layers.Layer{
		layers.NewConv("conv1", 20, 5, 1, 0),
		layers.NewMaxPool("pool1", 2, 2),
		layers.NewConv("conv2", 50, 5, 1, 0),
		layers.NewMaxPool("pool2", 2, 2),
		layers.NewInnerProduct("ip1", 500),
		layers.NewReLU("relu1"),
		layers.NewInnerProduct("ip2", 10),
		layers.NewSoftmaxLoss("loss"),
	}
}

// cifar10Quick is the CIFAR-10 "quick" reference model from the Caffe
// repository (the Figure 9 workload): ~145k parameters over 3 conv + 2
// fc layers on 3×32×32 inputs.
func cifar10Quick() (string, layers.Shape, []layers.Layer) {
	return "cifar10-quick", layers.Shape{C: 3, H: 32, W: 32}, []layers.Layer{
		layers.NewConv("conv1", 32, 5, 1, 2),
		layers.NewMaxPool("pool1", 3, 2),
		layers.NewReLU("relu1"),
		layers.NewConv("conv2", 32, 5, 1, 2),
		layers.NewReLU("relu2"),
		layers.NewAvgPool("pool2", 3, 2),
		layers.NewConv("conv3", 64, 5, 1, 2),
		layers.NewReLU("relu3"),
		layers.NewAvgPool("pool3", 3, 2),
		layers.NewInnerProduct("ip1", 64),
		layers.NewInnerProduct("ip2", 10),
		layers.NewSoftmaxLoss("loss"),
	}
}

// tinyNet is a deliberately small convolutional net on 3×8×8 inputs for
// fast unit and integration tests.
func tinyNet() (string, layers.Shape, []layers.Layer) {
	return "tiny", layers.Shape{C: 3, H: 8, W: 8}, []layers.Layer{
		layers.NewConv("conv1", 4, 3, 1, 1),
		layers.NewReLU("relu1"),
		layers.NewMaxPool("pool1", 2, 2),
		layers.NewInnerProduct("ip1", 16),
		layers.NewReLU("relu2"),
		layers.NewInnerProduct("ip2", 4),
		layers.NewSoftmaxLoss("loss"),
	}
}

// BuildLeNet constructs LeNet as a real-compute network.
func BuildLeNet(batch int, seed int64) *layers.Net {
	name, in, ls := leNet()
	return layers.NewNet(name, in, batch, seed, ls...)
}

// BuildCIFAR10Quick constructs the CIFAR-10 "quick" model as a
// real-compute network.
func BuildCIFAR10Quick(batch int, seed int64) *layers.Net {
	name, in, ls := cifar10Quick()
	return layers.NewNet(name, in, batch, seed, ls...)
}

// BuildTinyNet constructs the tiny test net as a real-compute network.
func BuildTinyNet(batch int, seed int64) *layers.Net {
	name, in, ls := tinyNet()
	return layers.NewNet(name, in, batch, seed, ls...)
}

// BuildAlexNet constructs the full AlexNet as a real-compute network —
// grouped conv2/4/5 included — with exactly the parameter geometry of
// the cost-model spec (60,965,224 parameters). Real training at this
// size is possible but slow in pure Go; it exists so the real and
// cost-model faces can be cross-checked on the paper's flagship model.
func BuildAlexNet(batch int, seed int64) *layers.Net {
	in := layers.Shape{C: 3, H: 227, W: 227}
	return layers.NewNet("alexnet", in, batch, seed,
		layers.NewConv("conv1", 96, 11, 4, 0),
		layers.NewReLU("relu1"),
		layers.NewLRN("norm1", 5, 1e-4, 0.75),
		layers.NewMaxPool("pool1", 3, 2),
		layers.NewConvGroups("conv2", 256, 5, 1, 2, 2),
		layers.NewReLU("relu2"),
		layers.NewLRN("norm2", 5, 1e-4, 0.75),
		layers.NewMaxPool("pool2", 3, 2),
		layers.NewConv("conv3", 384, 3, 1, 1),
		layers.NewReLU("relu3"),
		layers.NewConvGroups("conv4", 384, 3, 1, 1, 2),
		layers.NewReLU("relu4"),
		layers.NewConvGroups("conv5", 256, 3, 1, 1, 2),
		layers.NewReLU("relu5"),
		layers.NewMaxPool("pool5", 3, 2),
		layers.NewInnerProduct("fc6", 4096),
		layers.NewReLU("relu6"),
		layers.NewDropout("drop6", 0.5),
		layers.NewInnerProduct("fc7", 4096),
		layers.NewReLU("relu7"),
		layers.NewDropout("drop7", 0.5),
		layers.NewInnerProduct("fc8", 1000),
		layers.NewSoftmaxLoss("loss"),
	)
}
