#include "imaging/image_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include <unistd.h>

namespace slj {
namespace {

class ImageIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test case: ctest runs cases as concurrent processes.
    const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("slj_io_test_" + std::string(test->name()) + "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(ImageIoTest, PgmRoundTrip) {
  GrayImage img(7, 5);
  std::mt19937 rng(1);
  for (auto& v : img.data()) v = static_cast<std::uint8_t>(rng() % 256);
  write_pgm(img, path("a.pgm"));
  const GrayImage back = read_pgm(path("a.pgm"));
  EXPECT_EQ(img, back);
}

TEST_F(ImageIoTest, PpmRoundTrip) {
  RgbImage img(5, 4);
  std::mt19937 rng(2);
  for (auto& v : img.data()) {
    v = {static_cast<std::uint8_t>(rng() % 256), static_cast<std::uint8_t>(rng() % 256),
         static_cast<std::uint8_t>(rng() % 256)};
  }
  write_ppm(img, path("a.ppm"));
  const RgbImage back = read_ppm(path("a.ppm"));
  EXPECT_EQ(img, back);
}

TEST_F(ImageIoTest, ReadMissingFileThrows) {
  EXPECT_THROW(read_pgm(path("missing.pgm")), std::runtime_error);
  EXPECT_THROW(read_ppm(path("missing.ppm")), std::runtime_error);
}

TEST_F(ImageIoTest, BadMagicThrows) {
  std::ofstream out(path("bad.pgm"), std::ios::binary);
  out << "P9\n2 2\n255\n....";
  out.close();
  EXPECT_THROW(read_pgm(path("bad.pgm")), std::runtime_error);
}

TEST_F(ImageIoTest, TruncatedPixelDataThrows) {
  std::ofstream out(path("short.pgm"), std::ios::binary);
  out << "P5\n4 4\n255\nab";  // 16 bytes expected, 2 given
  out.close();
  EXPECT_THROW(read_pgm(path("short.pgm")), std::runtime_error);
}

TEST_F(ImageIoTest, CommentsInHeaderAreSkipped) {
  std::ofstream out(path("comment.pgm"), std::ios::binary);
  out << "P5\n# a comment line\n2 1\n# another\n255\nAB";
  out.close();
  const GrayImage img = read_pgm(path("comment.pgm"));
  EXPECT_EQ(img.width(), 2);
  EXPECT_EQ(img.height(), 1);
  EXPECT_EQ(img.at(0, 0), 'A');
  EXPECT_EQ(img.at(1, 0), 'B');
}

TEST_F(ImageIoTest, OversizedHeaderDimensionsAreRejectedBeforeAllocation) {
  // A hostile or bit-flipped header claiming a giant image must throw a
  // clean error instead of attempting a multi-gigabyte allocation.
  std::ofstream pgm(path("huge.pgm"), std::ios::binary);
  pgm << "P5\n2000000000 2000000000\n255\nxx";
  pgm.close();
  EXPECT_THROW(read_pgm(path("huge.pgm")), std::runtime_error);

  std::ofstream ppm(path("huge.ppm"), std::ios::binary);
  ppm << "P6\n4 1000000000\n255\nxx";
  ppm.close();
  EXPECT_THROW(read_ppm(path("huge.ppm")), std::runtime_error);
}

TEST_F(ImageIoTest, NegativeHeaderDimensionsThrow) {
  std::ofstream out(path("neg.pgm"), std::ios::binary);
  out << "P5\n-4 4\n255\nxxxx";
  out.close();
  EXPECT_THROW(read_pgm(path("neg.pgm")), std::runtime_error);
}

TEST_F(ImageIoTest, HeaderBitFlipsNeverCrash) {
  // Fuzz-style sweep: flip each byte of a small valid PPM in turn; every
  // variant must either load or throw — never crash or trip sanitizers.
  RgbImage img(4, 3);
  for (std::size_t i = 0; i < img.data().size(); ++i) {
    img.data()[i] = {static_cast<std::uint8_t>(i), 0, static_cast<std::uint8_t>(255 - i)};
  }
  write_ppm(img, path("flip.ppm"));
  std::ifstream in(path("flip.ppm"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] ^= 0xff;
    std::ofstream out(path("flip.ppm"), std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();
    try {
      (void)read_ppm(path("flip.ppm"));
    } catch (const std::runtime_error&) {
      // rejected cleanly — fine
    }
  }
}

TEST_F(ImageIoTest, WriteToInvalidPathThrows) {
  GrayImage img(2, 2);
  EXPECT_THROW(write_pgm(img, "/nonexistent_dir_xyz/out.pgm"), std::runtime_error);
}

TEST(BinaryGrayConversion, RoundTrip) {
  BinaryImage mask(3, 2, 0);
  mask.at(1, 1) = 1;
  mask.at(2, 0) = 1;
  const GrayImage gray = binary_to_gray(mask);
  EXPECT_EQ(gray.at(1, 1), 255);
  EXPECT_EQ(gray.at(0, 0), 0);
  const BinaryImage back = gray_to_binary(gray, 127);
  EXPECT_EQ(mask, back);
}

TEST(BinaryGrayConversion, ThresholdIsStrict) {
  GrayImage gray(2, 1);
  gray.at(0, 0) = 100;
  gray.at(1, 0) = 101;
  const BinaryImage mask = gray_to_binary(gray, 100);
  EXPECT_EQ(mask.at(0, 0), 0);  // == threshold stays background
  EXPECT_EQ(mask.at(1, 0), 1);
}

}  // namespace
}  // namespace slj
