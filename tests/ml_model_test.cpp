#include "mvreju/ml/model.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#include "mvreju/data/signs.hpp"

namespace mvreju::ml {
namespace {

/// Tiny two-class dataset: mean intensity below/above 0.5.
Dataset brightness_dataset(std::size_t count, std::uint64_t seed) {
    util::Rng rng(seed);
    Dataset ds;
    ds.num_classes = 2;
    for (std::size_t i = 0; i < count; ++i) {
        const int label = static_cast<int>(i % 2);
        const double base = label == 0 ? 0.2 : 0.8;
        Tensor img({1, 4, 4});
        for (std::size_t k = 0; k < img.size(); ++k)
            img[k] = static_cast<float>(base + rng.uniform(-0.15, 0.15));
        ds.images.push_back(std::move(img));
        ds.labels.push_back(label);
    }
    return ds;
}

Sequential tiny_classifier(std::uint64_t seed) {
    util::Rng rng(seed);
    Sequential model("tiny");
    model.add(std::make_unique<Flatten>())
        .add(std::make_unique<Dense>(16, 8, rng))
        .add(std::make_unique<ReLU>())
        .add(std::make_unique<Dense>(8, 2, rng));
    return model;
}

TEST(CrossEntropy, LossAndGradientAreConsistent) {
    Tensor logits({3}, {1.0f, 2.0f, 0.5f});
    const double loss = cross_entropy_loss(logits, 1);
    EXPECT_GT(loss, 0.0);
    // Numeric check of the gradient.
    Tensor grad = cross_entropy_grad(logits, 1);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < 3; ++i) {
        Tensor plus = logits;
        plus[i] += eps;
        Tensor minus = logits;
        minus[i] -= eps;
        const double numeric =
            (cross_entropy_loss(plus, 1) - cross_entropy_loss(minus, 1)) / (2.0 * eps);
        EXPECT_NEAR(numeric, grad[i], 1e-4);
    }
    // Gradient sums to zero (softmax minus one-hot).
    EXPECT_NEAR(grad[0] + grad[1] + grad[2], 0.0, 1e-6);
    EXPECT_THROW((void)cross_entropy_loss(logits, 5), std::invalid_argument);
    EXPECT_THROW((void)cross_entropy_grad(logits, -1), std::invalid_argument);
}

TEST(Sequential, LearnsSeparableTask) {
    Sequential model = tiny_classifier(11);
    Dataset train = brightness_dataset(200, 1);
    Dataset test = brightness_dataset(100, 2);
    TrainConfig cfg;
    cfg.epochs = 5;
    cfg.learning_rate = 0.05f;
    auto losses = model.train(train, cfg);
    EXPECT_LT(losses.back(), losses.front());
    EXPECT_GT(model.evaluate(test).accuracy, 0.95);
}

TEST(Sequential, EvaluateReportsSortedErrorSet) {
    Sequential model = tiny_classifier(12);  // untrained: ~50% accuracy
    Dataset test = brightness_dataset(50, 3);
    auto eval = model.evaluate(test);
    EXPECT_TRUE(std::is_sorted(eval.error_set.begin(), eval.error_set.end()));
    EXPECT_NEAR(eval.accuracy,
                1.0 - static_cast<double>(eval.error_set.size()) / 50.0, 1e-12);
}

TEST(Sequential, ProbabilitiesFormDistribution) {
    Sequential model = tiny_classifier(13);
    Dataset data = brightness_dataset(4, 4);
    auto probs = model.probabilities(data.images[0]);
    double sum = 0.0;
    for (float p : probs) {
        EXPECT_GE(p, 0.0f);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
    EXPECT_EQ(model.predict(data.images[0]),
              static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                               probs.begin()));
}

TEST(Sequential, CopyIsIndependent) {
    Sequential model = tiny_classifier(14);
    Sequential copy = model;
    copy.parameter_spans()[0][0] += 10.0f;
    EXPECT_NE(copy.parameter_spans()[0][0], model.parameter_spans()[0][0]);
    EXPECT_EQ(copy.name(), model.name());
}

TEST(Sequential, SaveLoadRoundTrip) {
    namespace fs = std::filesystem;
    Sequential model = tiny_classifier(15);
    Dataset data = brightness_dataset(10, 5);
    const fs::path path = fs::temp_directory_path() / "mvreju_model_test.bin";
    model.save_parameters(path);

    Sequential reloaded = tiny_classifier(99);  // different init
    EXPECT_NE(reloaded.logits(data.images[0]), model.logits(data.images[0]));
    reloaded.load_parameters(path);
    EXPECT_EQ(reloaded.logits(data.images[0]), model.logits(data.images[0]));
    fs::remove(path);
}

TEST(Sequential, LoadRejectsArchitectureMismatch) {
    namespace fs = std::filesystem;
    Sequential model = tiny_classifier(16);
    const fs::path path = fs::temp_directory_path() / "mvreju_model_test2.bin";
    model.save_parameters(path);
    util::Rng rng(17);
    Sequential other("other");
    other.add(std::make_unique<Dense>(4, 4, rng));
    EXPECT_THROW(other.load_parameters(path), std::runtime_error);
    fs::remove(path);
}

TEST(Sequential, LoadsNeverSeeAPartiallyWrittenSave) {
    // Several processes share one parameter cache; a loader racing a writer
    // must read the old file or the new one, never a truncated one.
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() /
                          ("mvreju_model_race_" + std::to_string(::getpid()) + ".bin");
    Sequential writer = make_tiny_lenet(3, 16, 8, 21);
    writer.save_parameters(path);
    std::atomic<bool> started{false};
    std::atomic<bool> done{false};
    std::size_t loads = 0;
    std::size_t failures = 0;
    std::thread loader([&] {
        Sequential model = make_tiny_lenet(3, 16, 8, 22);
        started = true;
        while (!done) {
            try {
                model.load_parameters(path);
            } catch (const std::runtime_error&) {
                ++failures;
            }
            ++loads;
        }
    });
    while (!started) std::this_thread::yield();
    for (int i = 0; i < 2000; ++i) writer.save_parameters(path);
    done = true;
    loader.join();
    fs::remove(path);
    EXPECT_GT(loads, 0u);
    EXPECT_EQ(failures, 0u) << "of " << loads << " loads";
}

TEST(Sequential, EmptyModelAndDatasetErrors) {
    Sequential empty;
    EXPECT_THROW((void)empty.logits(Tensor({1})), std::logic_error);
    Sequential model = tiny_classifier(18);
    EXPECT_THROW((void)model.train(Dataset{}, TrainConfig{}), std::invalid_argument);
    EXPECT_THROW((void)model.evaluate(Dataset{}), std::invalid_argument);
    TrainConfig bad;
    bad.batch_size = 0;
    Dataset data = brightness_dataset(4, 6);
    EXPECT_THROW((void)model.train(data, bad), std::invalid_argument);
}

TEST(Architectures, BuildAndClassifyWithCorrectShape) {
    for (auto maker : {make_tiny_lenet, make_mini_alexnet, make_micro_resnet}) {
        Sequential model = maker(3, 16, data::kSignClasses, 38);
        EXPECT_GT(model.parameter_count(), 1000u);
        Tensor img({3, 16, 16});
        Tensor out = model.logits(img);
        EXPECT_EQ(out.size(), static_cast<std::size_t>(data::kSignClasses));
        const int pred = model.predict(img);
        EXPECT_GE(pred, 0);
        EXPECT_LT(pred, data::kSignClasses);
    }
}

TEST(Architectures, DifferentSeedsGiveDifferentModels) {
    Sequential a = make_tiny_lenet(3, 16, 16, 1);
    Sequential b = make_tiny_lenet(3, 16, 16, 2);
    EXPECT_NE(a.parameter_spans()[0][0], b.parameter_spans()[0][0]);
}

TEST(Architectures, TrainableOnSmallSignSubset) {
    // Smoke training: a few epochs on a small split must beat chance by a
    // clear margin on in-sample data.
    data::SignDatasetConfig cfg;
    cfg.train_count = 480;
    cfg.test_count = 160;
    auto ds = data::make_traffic_signs(cfg);
    Sequential model = make_tiny_lenet(3, 16, data::kSignClasses, 38);
    TrainConfig tc;
    tc.epochs = 10;
    tc.learning_rate = 0.03f;
    tc.lr_decay = 0.9f;
    model.train(ds.train, tc);
    const double train_acc = model.evaluate(ds.train).accuracy;
    EXPECT_GT(train_acc, 0.45);  // chance is 1/16
}

}  // namespace
}  // namespace mvreju::ml
